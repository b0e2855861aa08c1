// Fingerprint: reproduce the honeypot-detection scenario of section 8.
// An attacker probes a host with Cowrie's default account "phil" (and
// the pre-2020 default "richard"): a successful phil login is a strong
// honeypot signal, so the attacker disconnects immediately without
// running a single command — exactly the >90% no-command pattern the
// paper observes. The defender side then surfaces the probes in the
// Figure 11 analysis.
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"honeynet/internal/analysis"
	"honeynet/internal/collector"
	"honeynet/internal/core"
	"honeynet/internal/honeypot"
	"honeynet/internal/sshclient"
)

func main() {
	store := collector.NewStore()
	node, err := honeypot.New(honeypot.Config{ID: "hp-fp", Sink: store.Sink})
	if err != nil {
		log.Fatal(err)
	}
	addr, err := node.ListenSSH("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()

	// --- Attacker side -------------------------------------------------
	probe := func(user string) {
		cli, err := sshclient.Dial(addr, sshclient.Config{User: user, Password: "probe123"})
		switch {
		case err == nil:
			fmt.Printf("probe %-8s -> LOGIN ACCEPTED: this is a Cowrie honeypot; disconnecting\n", user)
			cli.Close() // no commands: don't feed the trap
		case errors.Is(err, sshclient.ErrAuthFailed):
			fmt.Printf("probe %-8s -> rejected (default not present)\n", user)
		default:
			log.Fatal(err)
		}
	}
	probe("richard") // pre-2020 Cowrie default: fails on modern deployments
	probe("phil")    // post-2020 default: succeeds => honeypot identified

	// A regular bot, for contrast, logs in as root and works the shell.
	cli, err := sshclient.Dial(addr, sshclient.Config{User: "root", Password: "hunter2"})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := cli.Exec(`echo -e "\x6F\x6B"`); err != nil {
		log.Fatal(err)
	}
	cli.Close()

	// --- Defender side -------------------------------------------------
	waitFor(store, 3)
	f11 := analysis.Fig11(core.FromRecords(store.All(), nil).World)
	fmt.Println()
	fmt.Println(f11.Table())
	fmt.Printf("phil sessions: %d, of which %d ran no commands (fingerprinting signature)\n",
		f11.PhilSessions, f11.PhilNoCommands)
}

// waitFor polls until n session records arrived (they are sealed
// asynchronously as connections close).
func waitFor(store *collector.Store, n int) {
	deadline := time.Now().Add(3 * time.Second)
	for store.Len() < n && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
}
