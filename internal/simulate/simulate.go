// Package simulate generates the synthetic 33-month honeynet dataset:
// it schedules every bot in the catalog over Dec 2021 – Aug 2024,
// realizes each attack against an in-process emulated honeypot shell,
// and streams the resulting session records to the collector. A scale
// factor divides the paper-scale volumes so a laptop regenerates the
// full window in seconds while every reported *ratio* is preserved.
package simulate

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"honeynet/internal/abusedb"
	"honeynet/internal/asdb"
	"honeynet/internal/botnet"
	"honeynet/internal/collector"
	"honeynet/internal/obs"
	"honeynet/internal/parallel"
	"honeynet/internal/session"
	"honeynet/internal/shell"
	"honeynet/internal/vfs"
)

// Config parameterizes a simulation run.
type Config struct {
	// Scale divides the paper-scale session rates (default 1000: the
	// 546M-session window becomes ~546k sessions).
	Scale float64
	// Seed makes the run deterministic.
	Seed int64
	// Start and End bound the simulated window; zero values take the
	// paper's window.
	Start, End time.Time
	// Sink, if set, receives every record instead of the store
	// (streaming mode); without it, Run stores every record.
	Sink func(*session.Record)
	// Workers caps the goroutines replaying attack scripts against the
	// emulated shell (<= 0 means runtime.GOMAXPROCS(0), 1 is fully serial).
	// The generated dataset is identical for every value: all randomness
	// and shared mutable state (storage rotators, session IDs,
	// threat-intel feeds) stay on a serial path, and only the pure
	// per-session shell replay fans out.
	Workers int
	// Tracer, if set, records per-phase wall time (script vs replay vs
	// merge). Spans only observe the clock: the generated dataset is
	// identical with or without one.
	Tracer *obs.Tracer
}

func (c *Config) defaults() {
	if c.Scale <= 0 {
		c.Scale = 1000
	}
	if c.Start.IsZero() {
		c.Start = botnet.WindowStart
	}
	if c.End.IsZero() {
		c.End = botnet.WindowEnd
	}
}

// honeypots is the node count, as deployed.
const honeypots = 221

// Registry returns the AS registry a run with the given seed uses. It is
// a function of the seed, so rebuilding it restores a persisted
// dataset's (IP, time) -> AS attribution, storage ASes included.
func Registry(seed int64) *asdb.Registry { return asdb.NewRegistry(seed+1, 2000) }

// maintenanceStart/End: the 48h window with no recorded sessions
// (section 3.3).
var (
	maintenanceStart = botnet.D(2023, 10, 8)
	maintenanceEnd   = botnet.D(2023, 10, 10)
)

// Result bundles the simulated world.
type Result struct {
	Store    *collector.Store
	Registry *asdb.Registry
	AbuseDB  *abusedb.DB
	// Sessions is the total generated count (equals Store.Len() unless
	// a Sink took the records).
	Sessions int
}

// pending is a scripted session awaiting its shell replay: the record
// has every random draw realized, and commands holds the attack script
// to execute (empty when the session never reaches a shell).
type pending struct {
	bot      *botnet.Bot
	rec      *session.Record
	commands []string
}

// flushBatch is how many scripted sessions accumulate before a replay
// flush. It is a fixed constant — independent of the worker count — so
// batch boundaries (and therefore every downstream interleaving) are the
// same for every Workers setting.
const flushBatch = 4096

// Run executes the simulation in three repeating stages:
//
//  1. Script (serial): walk days in order and bots in catalog order,
//     drawing every random value — session counts, start times, logins,
//     client IPs, attack commands — from per-bot PRNG streams
//     (cfg.Seed ^ botIndex). Storage rotators are shared mutable state
//     consumed here, in one canonical order.
//  2. Replay (parallel): execute each scripted attack against a fresh
//     emulated shell. Replay is a pure function of the command list —
//     each session gets its own shell and filesystem — so sessions fan
//     out across cfg.Workers goroutines freely.
//  3. Merge (serial): assign session IDs, store/sink records, and
//     register threat-intel feeds in scripted order.
//
// Stages 2+3 run per fixed-size batch. The output is byte-identical for
// every worker count by construction: nothing order-dependent ever runs
// concurrently.
func Run(cfg Config) (*Result, error) {
	cfg.defaults()
	if !cfg.Start.Before(cfg.End) {
		return nil, fmt.Errorf("simulate: empty window %v..%v", cfg.Start, cfg.End)
	}
	res := &Result{Store: collector.NewStore(), Registry: Registry(cfg.Seed), AbuseDB: abusedb.New()}
	// Synthetic feeds label explicitly; disable the probabilistic
	// fallback so family labels always match the dropping bot.
	res.AbuseDB.LabelFraction = 0
	env := botnet.NewEnv(res.Registry)
	env.Scale = cfg.Scale
	bots := botnet.Catalog()
	workers := parallel.Workers(cfg.Workers)

	// One deterministic PRNG stream per bot: bot i's draws depend only on
	// (seed, i) and its own consumption order, never on other bots.
	rngs := make([]*rand.Rand, len(bots))
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(cfg.Seed ^ int64(i)))
	}
	var nextID uint64

	emit := func(r *session.Record) {
		nextID++
		r.ID = nextID
		if cfg.Sink != nil {
			cfg.Sink(r)
		} else {
			res.Store.Add(r)
		}
		res.Sessions++
	}

	fetch := Fetcher()

	batch := make([]pending, 0, flushBatch)
	flush := func() {
		sp := cfg.Tracer.Span("simulate.replay")
		parallel.ForEach(len(batch), workers, 8, func(_, lo, hi int) {
			for x := lo; x < hi; x++ {
				if len(batch[x].commands) > 0 {
					replay(batch[x].rec, batch[x].commands, fetch)
				}
			}
		})
		sp.End()
		sp = cfg.Tracer.Span("simulate.merge")
		for x := range batch {
			emit(batch[x].rec)
			if len(batch[x].commands) > 0 {
				registerThreatIntel(res.AbuseDB, batch[x].bot, batch[x].rec)
			}
		}
		sp.End()
		batch = batch[:0]
	}

	total := cfg.Tracer.Span("simulate")
	defer total.End()
	for day := cfg.Start; day.Before(cfg.End); day = day.AddDate(0, 0, 1) {
		if !day.Before(maintenanceStart) && day.Before(maintenanceEnd) {
			continue // honeynet-wide outage: no sessions recorded
		}
		for bi, bot := range bots {
			rate := botnet.EffectiveRate(bot, day) / cfg.Scale
			if rate <= 0 {
				continue
			}
			rng := rngs[bi]
			n := sampleCount(rng, botnet.Noisy(rate, 0.25, rng))
			for i := 0; i < n; i++ {
				batch = append(batch, script(bot, env, rng, day))
				if len(batch) == flushBatch {
					flush()
				}
			}
		}
	}
	flush()
	return res, nil
}

// sampleCount draws an integer session count with the fractional part
// realized probabilistically, so low-rate bots still appear.
func sampleCount(rng *rand.Rand, expected float64) int {
	n := int(expected)
	if rng.Float64() < expected-float64(n) {
		n++
	}
	return n
}

// Fetcher returns the deterministic download content generator: payload
// bytes derive from the URI alone, so a URI always hashes identically,
// and URIs under a /dead/ path simulate unreachable droppers.
func Fetcher() shell.DownloadFunc {
	return func(uri string) ([]byte, error) {
		if strings.Contains(uri, "/dead/") {
			return nil, fmt.Errorf("connect: no route to host")
		}
		return []byte("\x7fELF\x02\x01\x01\x00payload:" + uri), nil
	}
}

// script turns one attack into a fully-randomized session record plus
// the command list awaiting shell replay. Every rng draw happens here —
// nothing in the replay stage touches the stream — so the scripted
// record is independent of how the replay is later scheduled.
func script(bot *botnet.Bot, env *botnet.Env, rng *rand.Rand, day time.Time) pending {
	atk := bot.Gen(bot, env, rng, day)
	start := day.Add(time.Duration(rng.Int63n(int64(24 * time.Hour))))
	hp := rng.Intn(honeypots)
	proto := session.ProtoSSH
	if atk.Telnet {
		proto = session.ProtoTelnet
	}
	rec := &session.Record{
		Start:         start,
		HoneypotID:    fmt.Sprintf("hp-%03d", hp+1),
		HoneypotIP:    fmt.Sprintf("198.18.%d.%d", hp/200, hp%200+1),
		ClientPort:    1024 + rng.Intn(60000),
		Protocol:      proto,
		ClientVersion: atk.ClientVersion,
	}
	if atk.NoLogin {
		rec.ClientIP = bot.ClientIP(env, rng, day)
		rec.End = rec.Start.Add(time.Duration(rng.Intn(3000)) * time.Millisecond)
		return pending{bot: bot, rec: rec}
	}
	if atk.ClientIP != "" {
		rec.ClientIP = atk.ClientIP
	} else {
		rec.ClientIP = bot.ClientIP(env, rng, day)
	}
	for _, f := range atk.PreFailed {
		rec.Logins = append(rec.Logins, session.LoginAttempt{Username: f[0], Password: f[1]})
	}
	ok := !atk.FinalFails
	rec.Logins = append(rec.Logins, session.LoginAttempt{
		Username: atk.User, Password: atk.Password, Success: ok,
	})
	dur := time.Duration(1+rng.Intn(20)) * time.Second
	p := pending{bot: bot, rec: rec}
	if ok && len(atk.Commands) > 0 {
		p.commands = atk.Commands
		dur += time.Duration(len(atk.Commands)) * time.Second
	}
	rec.End = rec.Start.Add(dur)
	return p
}

// replay executes a scripted attack against a fresh emulated shell and
// fills in the execution-derived record fields. It is a pure function of
// the command list: each call gets its own shell and filesystem, and the
// fetcher derives content from the URI alone, so replays can run
// concurrently in any order.
func replay(rec *session.Record, commands []string, fetch shell.DownloadFunc) {
	sh := shell.New("svr04", fetch)
	for _, cmd := range commands {
		sh.Run(cmd)
		if sh.Exited() {
			break
		}
	}
	rec.Commands = sh.Commands()
	rec.Downloads = sh.Downloads()
	rec.ExecAttempts = sh.ExecAttempts()
	rec.StateChanged = sh.StateChanged()
	rec.DroppedHashes = sh.DroppedHashes()
}

// registerThreatIntel populates the synthetic abuse feeds the way the
// real world populates abuse.ch/VirusTotal: a sparse (~5%) deterministic
// subset of dropped hashes gets a family label, and just over half of
// storage IPs end up reported.
func registerThreatIntel(db *abusedb.DB, bot *botnet.Bot, rec *session.Record) {
	for _, h := range rec.DroppedHashes {
		if bot.Family == "" {
			continue
		}
		if stableFrac(h) < 0.05 {
			db.AddHash(h, bot.Family)
		}
	}
	for _, d := range rec.Downloads {
		if d.SourceIP != "" && stableFrac(d.SourceIP) < 0.56 {
			db.ReportIP(d.SourceIP)
		}
	}
	// The installed mdrfckr key file has a constant content hash, which
	// abuse feeds label CoinMiner (section 9). Only that hash is labeled
	// — the incidental /etc/shadow rewrites hash uniquely per session
	// and stay unknown, like any unreported file.
	if bot.Name == "mdrfckr" || bot.Name == "mdrfckr_variant" {
		for _, h := range rec.DroppedHashes {
			if h == mdrfckrKeyFileHash {
				db.AddHash(h, abusedb.LabelCoinMiner)
			}
		}
	}
}

// mdrfckrKeyFileHash is the content hash of the authorized_keys file the
// campaign writes (the key line plus the trailing newline echo adds).
var mdrfckrKeyFileHash = vfs.HashBytes([]byte(botnet.MdrfckrKey + "\n"))

// stableFrac maps a string to a deterministic fraction in [0,1).
func stableFrac(s string) float64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return float64(h%100000) / 100000
}
