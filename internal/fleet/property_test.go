package fleet

import (
	"math/rand"
	"net"
	"testing"
	"time"
)

// dialRaw opens a plain TCP connection to the collector for driving
// the wire protocol by hand.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// helloOn says hello as node on an open connection and returns the
// resume cursor the collector answers.
func helloOn(t *testing.T, c net.Conn, node string) uint64 {
	t.Helper()
	if err := writeJSONFrame(c, frameHello, helloMsg{V: ProtocolVersion, Node: node}); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	typ, payload, err := readFrame(c, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resume, err := parseCursorFrame(typ, payload, frameHelloAck)
	if err != nil {
		t.Fatal(err)
	}
	return resume
}

// helloRaw dials the collector and says hello as node.
func helloRaw(t *testing.T, addr, node string) (net.Conn, uint64) {
	t.Helper()
	c := dialRaw(t, addr)
	return c, helloOn(t, c, node)
}

// TestDedupProperty is the delivery property test: whatever redelivery,
// reordering, or duplication an edge inflicts on the wire — batches
// resent, shuffled, overlapping, or skipping ahead — the collector
// commits each (nodeID, seq) exactly once, in order, with no gaps.
// Randomized schedules are driven through a raw wire client (the real
// forwarder never reorders; the adversarial one here may), followed by
// one clean in-order sweep standing in for the forwarder's eventual
// rewind-and-resend, after which the shard must hold exactly the
// canonical sequence. A third of the way in a second connection says
// hello for the same node, as a reconnecting forwarder does while the
// collector is still draining the dropped link, and from then on every
// batch goes down one of the two at random.
func TestDedupProperty(t *testing.T) {
	srv, err := NewServer(t.TempDir(), ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const total = 400
	st := fillStore(t, total)
	recLines := lines(t, st)
	st.Close()

	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		node := nodeName(trial)

		c, _ := helloRaw(t, addr.String(), node)
		conns := []net.Conn{c}

		// Build an adversarial schedule: contiguous batches covering
		// 0..total, shuffled, with random batches duplicated and a few
		// far-future gap batches mixed in.
		type batch struct{ base, end int }
		var sched []batch
		for base := 0; base < total; {
			end := base + 1 + rng.Intn(40)
			if end > total {
				end = total
			}
			sched = append(sched, batch{base, end})
			base = end
		}
		for i := 0; i < len(sched)/2; i++ { // duplicates
			sched = append(sched, sched[rng.Intn(len(sched))])
		}
		for i := 0; i < 3; i++ { // gap batches skipping ahead
			base := rng.Intn(total-10) + 5
			sched = append(sched, batch{base + total, base + total + 3})
		}
		rng.Shuffle(len(sched), func(i, j int) { sched[i], sched[j] = sched[j], sched[i] })
		// Every schedule ends with one clean in-order sweep: the
		// at-least-once guarantee that delivery eventually completes.
		sched = append(sched, batch{0, total})

		send := func(c net.Conn, b batch) uint64 {
			if _, err := c.Write(batchFrame(t, recLines, b.base, b.end-b.base)); err != nil {
				t.Fatal(err)
			}
			return readAck(t, c)
		}
		var last uint64
		for i, b := range sched {
			if i == len(sched)/3 {
				c2, resume := helloRaw(t, addr.String(), node)
				if resume != last {
					t.Fatalf("trial %d: second hello resumes at %d, cursor is %d", trial, resume, last)
				}
				conns = append(conns, c2)
			}
			next := send(conns[rng.Intn(len(conns))], b)
			if next < last {
				t.Fatalf("trial %d: collector cursor went backwards: %d after %d", trial, next, last)
			}
			last = next
		}
		if last != total {
			t.Fatalf("trial %d: final cursor %d, want %d", trial, last, total)
		}
		for _, c := range conns {
			c.Close()
		}

		// The shard holds exactly the canonical sequence.
		assertShardLines(t, srv, node, recLines)
	}
}

func nodeName(trial int) string {
	return "prop-" + string(rune('a'+trial))
}
