package main

import (
	"flag"
	"io"
	"net"
	"strings"
	"testing"

	"honeynet"
)

func parse(t *testing.T, args ...string) (honeynet.CollectConfig, error) {
	t.Helper()
	fs := flag.NewFlagSet("hncollect", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseFlags(fs, args)
}

// TestNoFlagsIsTheLibraryDefault: parsing no flags gives exactly
// CollectConfig.Defaults — hncollect re-spells no library default, and
// the live pipeline is on.
func TestNoFlagsIsTheLibraryDefault(t *testing.T) {
	got, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	var want honeynet.CollectConfig
	want.Defaults()
	if got != want {
		t.Errorf("no flags gave %+v, the library defaults are %+v", got, want)
	}
}

// TestBadConfigFailsBeforeListening: the retired -sync-ack (acks are
// always fsync-first) and -live-seed fail at flag parsing; a missing
// -dir is refused by Collect before it binds -listen (here an address
// already taken, so binding would be the error reported).
func TestBadConfigFailsBeforeListening(t *testing.T) {
	for _, retired := range [][]string{{"-sync-ack=false"}, {"-live-seed", "7"}} {
		if _, err := parse(t, retired...); err == nil {
			t.Errorf("%s parsed; it was retired", retired[0])
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cfg, err := parse(t, "-listen", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := honeynet.Collect(cfg)
	if err == nil {
		c.Close()
		t.Fatal("Collect started without -dir")
	}
	if !strings.Contains(err.Error(), "Dir") {
		t.Errorf("error %q, want one about the missing fleet directory", err)
	}
}
