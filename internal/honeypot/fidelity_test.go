package honeypot

import (
	"math/rand"
	"testing"
	"time"

	"honeynet/internal/asdb"
	"honeynet/internal/botnet"
	"honeynet/internal/classify"
	"honeynet/internal/session"
	"honeynet/internal/shell"
	"honeynet/internal/simulate"
	"honeynet/internal/sshclient"
)

// TestBotFidelityOverRealSSH verifies the DESIGN.md fidelity claim: an
// attack script realized through the real network path (TCP + our SSH
// client + the honeypot server) records byte-identical commands, the
// same downloads, and the same state-change outcome as the in-process
// simulator path — so analyses over simulated data generalize to what
// live honeypots capture.
func TestBotFidelityOverRealSSH(t *testing.T) {
	sk := newSink()
	node, err := New(Config{
		ID:       "hp-fidelity",
		Sink:     sk.add,
		Timeout:  30 * time.Second,
		Download: simulate.Fetcher(),
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := node.ListenSSH("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	day := botnet.D(2022, 6, 15)
	targets := []string{"mdrfckr", "echo_OK", "mirai_loader", "bbox_5_char_v2", "update_attack"}

	for _, name := range targets {
		var bot *botnet.Bot
		for _, b := range botnet.Catalog() {
			if b.Name == name {
				bot = b
			}
		}
		if bot == nil {
			t.Fatalf("bot %q missing", name)
		}
		// Two identical worlds (one registry, separate envs, since
		// storage rotators carry state) generate the same attack: one
		// goes over the wire, one through the simulator path.
		reg := asdb.NewRegistry(1, 100)
		atkWire := bot.Gen(bot, botnet.NewEnv(reg), rand.New(rand.NewSource(99)), day)
		atkSim := bot.Gen(bot, botnet.NewEnv(reg), rand.New(rand.NewSource(99)), day)

		// In-process replay (what internal/simulate does).
		sim := shell.New("svr04", simulate.Fetcher())
		for _, cmd := range atkSim.Commands {
			sim.Run(cmd)
			if sim.Exited() {
				break
			}
		}

		// Network replay.
		cli, err := sshclient.Dial(addr, sshclient.Config{
			User: atkWire.User, Password: atkWire.Password, Version: atkWire.ClientVersion,
		})
		if err != nil {
			t.Fatalf("%s: dial: %v", name, err)
		}
		for _, cmd := range atkWire.Commands {
			if _, err := cli.Exec(cmd); err != nil {
				t.Fatalf("%s: exec: %v", name, err)
			}
		}
		cli.Close()
		rec := sk.wait(t)

		// Commands byte-identical.
		if len(rec.Commands) != len(sim.Commands()) {
			t.Fatalf("%s: %d commands over wire, %d in-process", name, len(rec.Commands), len(sim.Commands()))
		}
		for i := range rec.Commands {
			if rec.Commands[i] != sim.Commands()[i] {
				t.Errorf("%s: command %d differs:\nwire: %+v\nsim:  %+v",
					name, i, rec.Commands[i], sim.Commands()[i])
			}
		}
		// Downstream observables identical.
		if rec.StateChanged != sim.StateChanged() {
			t.Errorf("%s: state changed wire=%v sim=%v", name, rec.StateChanged, sim.StateChanged())
		}
		if len(rec.Downloads) != len(sim.Downloads()) {
			t.Errorf("%s: downloads wire=%d sim=%d", name, len(rec.Downloads), len(sim.Downloads()))
		} else {
			for i := range rec.Downloads {
				if rec.Downloads[i].Hash != sim.Downloads()[i].Hash {
					t.Errorf("%s: download %d hash differs", name, i)
				}
			}
		}
		if len(rec.ExecAttempts) != len(sim.ExecAttempts()) {
			t.Errorf("%s: execs wire=%d sim=%d", name, len(rec.ExecAttempts), len(sim.ExecAttempts()))
		}
		// And classification agrees, so every figure sees the same bot.
		cls := classify.New()
		wireTxt := rec.CommandText()
		simRec := session.Record{Commands: sim.Commands()}
		if cls.Classify(wireTxt) != cls.Classify(simRec.CommandText()) {
			t.Errorf("%s: classification differs across paths", name)
		}
	}
}
