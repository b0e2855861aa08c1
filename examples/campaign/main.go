// Campaign: drive the modeled mdrfckr and Mirai-loader bots over REAL
// TCP+SSH against a three-node honeynet, collect the session records at
// a central collector, and classify what was captured — the full paper
// pipeline in miniature, with actual sockets instead of the simulator.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"honeynet/internal/botnet"
	"honeynet/internal/classify"
	"honeynet/internal/collector"
	"honeynet/internal/honeypot"
	"honeynet/internal/session"
	"honeynet/internal/simulate"
	"honeynet/internal/sshclient"
)

func main() {
	store := collector.NewStore()

	// A small honeynet: three identically configured nodes.
	var addrs []string
	for i := 0; i < 3; i++ {
		node, err := honeypot.New(honeypot.Config{
			ID:       fmt.Sprintf("hp-%d", i+1),
			Download: simulate.Fetcher(),
			Sink:     store.Sink,
		})
		if err != nil {
			log.Fatal(err)
		}
		addr, err := node.ListenSSH("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer node.Close()
		addrs = append(addrs, addr)
	}
	fmt.Println("honeynet nodes:", addrs)

	// Pick the two campaign models from the catalog.
	env := botnet.NewEnv(simulate.Registry(0))
	rng := rand.New(rand.NewSource(7))
	day := botnet.D(2022, 6, 15)
	var mdrfckr, mirai *botnet.Bot
	for _, b := range botnet.Catalog() {
		switch b.Name {
		case "mdrfckr":
			mdrfckr = b
		case "mirai_loader":
			mirai = b
		}
	}

	// Each bot attacks every node once, over the wire.
	for _, bot := range []*botnet.Bot{mdrfckr, mirai} {
		for _, addr := range addrs {
			atk := bot.Gen(bot, env, rng, day)
			cli, err := sshclient.Dial(addr, sshclient.Config{
				User: atk.User, Password: atk.Password, Version: atk.ClientVersion,
				Timeout: 10 * time.Second,
			})
			if err != nil {
				log.Fatalf("%s vs %s: %v", bot.Name, addr, err)
			}
			for _, cmd := range atk.Commands {
				if _, err := cli.Exec(cmd); err != nil {
					log.Fatalf("%s exec: %v", bot.Name, err)
				}
			}
			cli.Close()
		}
	}

	// Give the nodes a moment to seal the records.
	deadline := time.Now().Add(3 * time.Second)
	for store.Len() < 6 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}

	// Classify what the honeynet captured.
	cls := classify.New()
	fmt.Printf("\n%-10s %-18s %-9s %-6s %-5s\n", "honeypot", "category", "kind", "state", "drops")
	for _, r := range store.All() {
		if r.Kind() != session.CommandExec {
			continue
		}
		fmt.Printf("%-10s %-18s %-9s %-6v %-5d\n",
			r.HoneypotID, cls.Classify(r.CommandText()), r.Kind(), r.StateChanged, len(r.DroppedHashes))
	}
}
