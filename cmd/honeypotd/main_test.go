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
	if got.LogMaxSize != 256<<20 || got.LiveOff {
		t.Errorf("LogMaxSize = %d, LiveOff = %v; want %s and live on", got.LogMaxSize, got.LiveOff, defaultLogMaxSize)
	}
}

// TestBadConfigFailsBeforeListening: a bad size fails at flag parsing;
// a bad rate and -forward without -store are refused by Serve before it
// binds -ssh (here an address already taken, so binding would be the
// error reported).
func TestBadConfigFailsBeforeListening(t *testing.T) {
	if _, err := parse(t, "-log-max-size", "12 parsecs"); err == nil {
		t.Error("bad -log-max-size parsed")
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
