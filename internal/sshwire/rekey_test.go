package sshwire

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// pump echoes packets so the peer's read loop advances during tests.
func pump(c *Conn) {
	for {
		p, err := c.ReadPacket()
		if err != nil {
			return
		}
		cp := bytes.Clone(p)
		if err := c.WritePacket(cp); err != nil {
			return
		}
	}
}

// reader drains a connection's packets into a channel. Rekeys complete
// inside ReadPacket, exactly as they do under the Mux's read loop.
func reader(c *Conn) <-chan []byte {
	ch := make(chan []byte, 64)
	go func() {
		defer close(ch)
		for {
			p, err := c.ReadPacket()
			if err != nil {
				return
			}
			ch <- bytes.Clone(p)
		}
	}()
	return ch
}

func waitRekeys(t *testing.T, c *Conn, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Rekeys() < want {
		if time.Now().After(deadline) {
			t.Fatalf("rekeys = %d, want %d", c.Rekeys(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestClientInitiatedRekey(t *testing.T) {
	srv, cli := handshakePair(t, nil, nil)
	go pump(srv)
	echoes := reader(cli)

	msg := []byte{200, 1, 2, 3}
	roundTrip := func() {
		t.Helper()
		if err := cli.WritePacket(msg); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-echoes:
			if !bytes.Equal(got, msg) {
				t.Fatalf("echo mismatch: %x", got)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("echo timeout")
		}
	}

	roundTrip()
	if err := cli.RequestRekey(); err != nil {
		t.Fatal(err)
	}
	waitRekeys(t, cli, 1)
	// Traffic continues transparently on the new keys.
	for i := 0; i < 5; i++ {
		roundTrip()
	}
	waitRekeys(t, srv, 1)
	if !bytes.Equal(srv.SessionID(), cli.SessionID()) {
		t.Error("session ID must survive rekeying unchanged")
	}
}

func TestServerInitiatedRekey(t *testing.T) {
	srv, cli := handshakePair(t, nil, nil)
	go pump(cli)
	echoes := reader(srv)

	if err := srv.RequestRekey(); err != nil {
		t.Fatal(err)
	}
	waitRekeys(t, srv, 1)
	waitRekeys(t, cli, 1)
	if err := srv.WritePacket([]byte{201, 9}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-echoes:
	case <-time.After(5 * time.Second):
		t.Fatal("no echo after server-initiated rekey")
	}
}

func TestRekeyRequestIdempotentWhileInFlight(t *testing.T) {
	srv, cli := handshakePair(t, nil, nil)
	go pump(srv)
	_ = reader(cli)

	if err := cli.RequestRekey(); err != nil {
		t.Fatal(err)
	}
	// A second request before completion must be a no-op, not a protocol
	// violation.
	if err := cli.RequestRekey(); err != nil {
		t.Fatal(err)
	}
	waitRekeys(t, cli, 1)
	time.Sleep(20 * time.Millisecond)
	if n := cli.Rekeys(); n != 1 {
		t.Fatalf("rekeys = %d, want exactly 1", n)
	}
}

func TestConcurrentWritersDuringRekey(t *testing.T) {
	srv, cli := handshakePair(t, nil, nil)
	go func() {
		for {
			if _, err := srv.ReadPacket(); err != nil {
				return
			}
		}
	}()
	_ = reader(cli)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := cli.WritePacket([]byte{203, byte(i)}); err != nil {
					return
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	if err := cli.RequestRekey(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	waitRekeys(t, cli, 1)
	if err := cli.WritePacket([]byte{204}); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleSequentialRekeys(t *testing.T) {
	srv, cli := handshakePair(t, nil, nil)
	go pump(srv)
	_ = reader(cli)

	for round := 1; round <= 3; round++ {
		if err := cli.RequestRekey(); err != nil {
			t.Fatal(err)
		}
		waitRekeys(t, cli, round)
		if err := cli.WritePacket([]byte{205, byte(round)}); err != nil {
			t.Fatal(err)
		}
	}
	waitRekeys(t, srv, 3)
}

func TestSimultaneousRekeyFromBothSides(t *testing.T) {
	srv, cli := handshakePair(t, nil, nil)
	_ = reader(srv)
	_ = reader(cli)

	if err := cli.RequestRekey(); err != nil {
		t.Fatal(err)
	}
	if err := srv.RequestRekey(); err != nil {
		t.Fatal(err)
	}
	waitRekeys(t, cli, 1)
	waitRekeys(t, srv, 1)
	// Channel still usable in both directions.
	if err := cli.WritePacket([]byte{206}); err != nil {
		t.Fatal(err)
	}
	if err := srv.WritePacket([]byte{207}); err != nil {
		t.Fatal(err)
	}
}

// TestBurstWaitsForNewKeys issues a burst while our rekey is in flight:
// it must wait for NEWKEYS, then go out in one write under the new keys.
func TestBurstWaitsForNewKeys(t *testing.T) {
	srv, cli, _, cliW := countedPair(t, nil, nil)
	before := cliW.writes.Load()
	if err := cli.RequestRekey(); err != nil {
		t.Fatal(err)
	}
	burst := [][]byte{{210, 1}, {211}, bytes.Repeat([]byte{212}, 3000)}
	sent := make(chan error, 1)
	go func() { sent <- cli.writePackets(burst...) }()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-sent:
		t.Fatalf("burst went out during the rekey (err %v)", err)
	default:
	}
	if n := cliW.writes.Load() - before; n != 1 {
		t.Fatalf("%d writes before the peer answered, want our KEXINIT only", n)
	}

	got := reader(srv)
	_ = reader(cli)
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("burst never sent")
	}
	if cli.Rekeys() != 1 {
		t.Fatalf("burst sent with rekeys = %d", cli.Rekeys())
	}
	// KEXINIT, ECDH init, NEWKEYS, then the whole burst.
	if n := cliW.writes.Load() - before; n != 4 {
		t.Fatalf("%d writes for rekey plus burst, want 4", n)
	}
	for i, want := range burst {
		select {
		case p := <-got:
			if !bytes.Equal(p, want) {
				t.Fatalf("burst packet %d = %x, want %x", i, p, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("burst packet %d never arrived", i)
		}
	}
}
