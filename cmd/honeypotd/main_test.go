package main

import (
	"flag"
	"io"
	"net"
	"strings"
	"testing"

	"honeynet"
)

func parse(t *testing.T, args ...string) (honeynet.ServeConfig, error) {
	t.Helper()
	fs := flag.NewFlagSet("honeypotd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseFlags(fs, args)
}

// TestNoFlagsIsTheLibraryDefault: what the library defaults, honeypotd
// does not re-spell — parsing no flags leaves those fields exactly as
// ServeConfig.Defaults sets them.
func TestNoFlagsIsTheLibraryDefault(t *testing.T) {
	got, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	var want honeynet.ServeConfig
	want.Defaults()
	if got.SSHAddr != want.SSHAddr || got.ID != want.ID || got.Hostname != want.Hostname || got.DrainTimeout != want.DrainTimeout {
		t.Errorf("no flags gave %q %q %q %v, the library defaults are %q %q %q %v",
			got.SSHAddr, got.ID, got.Hostname, got.DrainTimeout, want.SSHAddr, want.ID, want.Hostname, want.DrainTimeout)
	}
	if got.LiveOff || got.StorePath != "" {
		t.Errorf("LiveOff = %v, StorePath = %q; want live on and no store (records stream to stdout)", got.LiveOff, got.StorePath)
	}
}

// TestBadConfigFailsBeforeListening: an empty -ssh and the retired
// file-log flags fail at flag parsing; a bad rate and -forward without
// -store are refused by Serve before it binds -ssh (here an address
// already taken, so binding would be the error reported).
func TestBadConfigFailsBeforeListening(t *testing.T) {
	for _, retired := range [][]string{{"-out", "sessions.jsonl"}, {"-log-max-size", "256MB"}} {
		if _, err := parse(t, retired...); err == nil {
			t.Errorf("%s parsed; the store is the only durable log", retired[0])
		}
	}
	if _, err := parse(t, "-ssh", ""); err == nil {
		t.Error("empty -ssh parsed")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-rate", "fast"}, "rate"},
		{[]string{"-forward", "127.0.0.1:1"}, "requires StorePath"},
	} {
		cfg, err := parse(t, append(tc.args, "-ssh", ln.Addr().String(), "-telnet", "")...)
		if err != nil {
			t.Fatal(err)
		}
		cfg.LogOutput = io.Discard
		srv, err := honeynet.Serve(cfg)
		if err == nil {
			srv.Close()
			t.Fatalf("%v: Serve started", tc.args)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %q, want one about %q", tc.args, err, tc.want)
		}
	}
}
