// Package classify implements the paper's regex-based command
// classification (section 5, Table 1 in Appendix B): 58 explicit
// behavioral-signature categories plus an "unknown" fallback, applied to
// the full command text of a session.
//
// The paper's rules use Python lookahead assertions `(?=...)` to require
// several patterns simultaneously. Go's RE2 engine has no lookaheads, so
// each rule here is a conjunction: a list of regexes that must ALL match
// (plus optional exclusions). That is exactly the lookahead semantics.
//
// There is one engine, for the batch figures and the ingest path alike:
// New compiles the literal structure of the whole table into a single
// Aho–Corasick automaton, so a classification is one scan of the text
// plus the few regexes the scan could not decide (see Classifier).
package classify

import (
	"regexp"
	"sync"

	"honeynet/internal/parallel"
)

// Unknown is the fallback category for sessions no rule matches.
const Unknown = "unknown"

// Rule is one behavioral signature.
type Rule struct {
	// Name is the category label used throughout the paper's figures.
	Name string
	// Require are regexes that must all match the session command text.
	Require []string
	// Exclude are regexes that must not match.
	Exclude []string
	// Generic marks the 14 generic loader categories (wget/curl/echo/ftp
	// combinations) that many different bots reuse; the other rules are
	// bot- or campaign-specific.
	Generic bool
}

// rules is the ordered signature table: specific bots first, generic
// loader combinations last (most specific combination first), mirroring
// Table 1. First match wins.
var rules = []Rule{
	// --- The dominant persistence campaign (section 9). The variant
	// (appearing 2022-12-08) additionally cleans up the WorkMiner bot.
	{Name: "mdrfckr_variant", Require: []string{`mdrfckr`, `hosts\.deny`}},
	{Name: "mdrfckr", Require: []string{`mdrfckr`}},

	// --- Scouting echoes.
	{Name: "echo_ok", Require: []string{`\\x6F\\x6B`}},
	{Name: "echo_ok_txt", Require: []string{`echo ok`}},
	{Name: "echo_ssh_check", Require: []string{`SSH check`}},
	{Name: "echo_os_check", Require: []string{`\becho\b\s+[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}`}},

	// --- uname-family scouts.
	{Name: "uname_svnrm", Require: []string{`uname\s+-s\s+-v\s+-n\s+-r\s+-m`}},
	{Name: "uname_snri_nproc", Require: []string{`nproc`, `\buname\s+-s\s+-n\s+-r\s+-i\b`}},
	{Name: "uname_svnr", Require: []string{`uname\s+-s\s+-v\s+-n\s+-r`}},
	{Name: "uname_a_nproc", Require: []string{`nproc`, `\buname\s+-a\b`}},
	{Name: "uname_a", Require: []string{`uname\s+-a`}},

	// --- busybox family.
	{Name: "bbox_scout_cat", Require: []string{`/bin/busybox\s+cat\s+/proc/self/exe\s*\|\|\s*cat\s+/proc/self/exe`}},
	{Name: "bbox_loaderwget", Require: []string{`loader\.wget`}},
	{Name: "bbox_echo_elf", Require: []string{`\\x45\\x4c\\x46`}},
	{Name: "bbox_5_char_v2", Require: []string{`/bin/busybox\s+[a-zA-Z0-9]{5}\b`, `tftp`, `wget`}},
	{Name: "bbox_5_char", Require: []string{`/bin/busybox\s+[a-zA-Z0-9]{5}(\s|$|;)`}},
	{Name: "bbox_rand_exec", Require: []string{`/bin/busybox`, `chmod`, `\./[a-zA-Z0-9]{4,}`}},
	{Name: "bbox_unlabelled", Require: []string{`(/bin/busybox\s|busybox\s)`}},

	// --- Named campaigns and bots.
	{Name: "juicessh", Require: []string{`juicessh`}},
	{Name: "passwd123_daemon", Require: []string{`Password123`, `daemon`}},
	{Name: "pattern_7", Require: []string{`cd\s+/tmp\s*;\s*rm\s+-rf\s+/tmp/\*`, `cd\s+/var/run`}},
	{Name: "rapperbot", Require: []string{`ssh-rsa\s+AAAAB3NzaC1yc2EAAAADAQABA`}},
	{Name: "root_17_char_pwd", Require: []string{`root:[A-Za-z0-9]{15,}`, `chpasswd`}},
	{Name: "root_12_char_capscout", Require: []string{`root:[A-Za-z0-9]{12}`, `print\s+\$4,\s*\$5,\s*\$6`}},
	{Name: "root_12_char_echo321", Require: []string{`root:[A-Za-z0-9]{12}`, `echo\s+321`}},
	{Name: "pattern_5", Require: []string{`rm\s+-rf\s+\*`, `cd\s+/tmp`, `(x0x0x0|xoxoxo)`}},
	{Name: "curl_maxred", Require: []string{`max-redir`}},
	{Name: "lenni_0451", Require: []string{`lenni0451`}},
	{Name: "binx86", Require: []string{`bin\.x86_64`}},
	{Name: "export_vei", Require: []string{`export VEI`}},
	{Name: "clamav", Require: []string{`\bclamav\b`}},
	{Name: "grer_echo", Require: []string{`\\x67\\x79`}},
	{Name: "dget_4", Require: []string{`wget\s+-4`, `dget\s+-4`}},
	{Name: "wget_dget", Require: []string{`dget`}},
	{Name: "openssl_passwd", Require: []string{`openssl passwd -1 \S{8}`}},
	{Name: "cloud_print", Require: []string{`cloud\s+print`}},
	{Name: "shell_fp", Require: []string{`\$SHELL`, `bs=22`}},
	{Name: "perl_dred_miner", Require: []string{`perl`, `dred`}},
	{Name: "stx_miner", Require: []string{`stx`, `LC_ALL`}},
	// The two slur-named campaigns; the paper redacts the names in prose
	// but keeps the signatures for reproducibility (Table 1).
	{Name: "fjp_attack", Require: []string{`fuckjewishpeople`}},
	{Name: "grer_attack", Require: []string{`gayfgt`}},
	{Name: "ohshit_attack", Require: []string{`ohshit`}},
	{Name: "onions_attack", Require: []string{`onions1337`}},
	{Name: "sora_attack", Require: []string{`sora`}},
	{Name: "heisen_attack", Require: []string{`Heisenberg`}},
	{Name: "zeus_attack", Require: []string{`Zeus`}},
	{Name: "update_attack", Require: []string{`update\.sh`}},
	{Name: "ak47_scout", Require: []string{`\\x41\\x4b\\x34\\x37`, `writable`}},
	{Name: "rm_obf_pattern_1", Require: []string{`rm\s+-rf\s+\.[a-z]{2,8}`, `history -c`}},

	// --- Generic loader combinations (the 14 "how files are introduced"
	// categories of section 5), most specific first.
	{Name: "gen_curl_echo_ftp_wget", Generic: true, Require: []string{`\bcurl\b`, `\becho\b`, `ftp`, `\bwget\b`}},
	{Name: "gen_curl_echo_wget", Generic: true, Require: []string{`\bcurl\b`, `\becho\b`, `\bwget\b`}},
	{Name: "gen_curl_ftp_wget", Generic: true, Require: []string{`\bcurl\b`, `ftp`, `\bwget\b`}},
	{Name: "gen_echo_ftp_wget", Generic: true, Require: []string{`\becho\b`, `ftp`, `\bwget\b`}},
	{Name: "gen_curl_echo", Generic: true, Require: []string{`\bcurl\b`, `\becho\b`}},
	{Name: "gen_curl_ftp", Generic: true, Require: []string{`\bcurl\b`, `ftp`}},
	{Name: "gen_curl_wget", Generic: true, Require: []string{`\bcurl\b`, `\bwget\b`}},
	{Name: "gen_echo_ftp", Generic: true, Require: []string{`\becho\b`, `ftp`}},
	{Name: "gen_echo_wget", Generic: true, Require: []string{`\becho\b`, `\bwget\b`}},
	{Name: "gen_ftp_wget", Generic: true, Require: []string{`ftp`, `\bwget\b`}},
	{Name: "gen_curl", Generic: true, Require: []string{`\bcurl\b`}},
	{Name: "gen_wget", Generic: true, Require: []string{`\bwget\b`}},
	{Name: "gen_ftp", Generic: true, Require: []string{`ftp`}},
	{Name: "gen_echo", Generic: true, Require: []string{`\becho\b`}},
}

// Classifier applies the rule table. Immutable after New apart from the
// memo, and safe for concurrent use.
//
// The table is compiled once into an Aho–Corasick automaton over every
// literal the rules depend on, plus one verification program per rule.
// Three facts make one scan of the text plus a little regex work equal
// to the table read literally (every Require matches, no Exclude
// matches, first rule wins):
//
//  1. A require regex whose match set is exactly one literal
//     (LiteralPrefix complete) is fully decided by the automaton:
//     hit ⟺ strings.Contains ⟺ MatchString. The regex engine never
//     runs for it.
//  2. A require regex with a derivable necessary-literal set (see
//     NecessaryLits: `\bcurl\b` needs "curl", `(x0x0x0|xoxoxo)` needs
//     one of two spellings) is refuted for free when no member occurs;
//     only texts containing a member pay for the regex.
//  3. Everything else runs the rule's own compiled regexes, in rule
//     order, first match wins.
type Classifier struct {
	rules   []Rule
	ac      *acAutomaton
	progs   []ruleProg
	numPats int
	// hitsPool recycles the per-call hit flags so concurrent ingest
	// classifications stay allocation-free.
	hitsPool sync.Pool
	// memo caches text -> category for Classify and ClassifyAll: bot
	// sessions repeat verbatim command strings, so across a 33-month
	// dataset the distinct texts are a tiny fraction of the sessions.
	// Classification is a pure function of the text, so concurrent fills
	// are idempotent and the cache never changes a result.
	memo sync.Map
}

// step is one regex's verification plan. When re is nil the step is a
// complete literal: lits holds the single pattern whose hit is
// equivalent to the regex matching. Otherwise lits (possibly empty) is a
// necessary-literal set: no hit among them refutes the regex without
// running it; a hit still requires running re.
type step struct {
	re   *regexp.Regexp
	lits []int32
}

// ruleProg is one rule's compiled probe: the automaton-decidable
// structure plus the residual regex work.
type ruleProg struct {
	name     string
	req, exc []step
}

// New compiles the rule table.
func New() *Classifier {
	c := &Classifier{rules: rules}
	b := newACBuilder()
	pats := map[string]int32{}
	intern := func(lits ...string) []int32 {
		var ids []int32
		for _, lit := range lits {
			id, ok := pats[lit]
			if !ok {
				id = int32(len(pats))
				pats[lit] = id
				b.add(lit, id)
			}
			ids = append(ids, id)
		}
		return ids
	}
	for i := range rules {
		r := &rules[i]
		prog := ruleProg{name: r.Name}
		for _, expr := range r.Require {
			re := regexp.MustCompile(expr)
			if lit, complete := re.LiteralPrefix(); complete && lit != "" {
				prog.req = append(prog.req, step{lits: intern(lit)})
				continue
			}
			prog.req = append(prog.req, step{re: re, lits: intern(NecessaryLits(expr)...)})
		}
		for _, expr := range r.Exclude {
			prog.exc = append(prog.exc, step{re: regexp.MustCompile(expr), lits: intern(NecessaryLits(expr)...)})
		}
		c.progs = append(c.progs, prog)
	}
	c.ac = b.build()
	c.numPats = len(pats)
	c.hitsPool.New = func() any { return make([]bool, c.numPats) }
	return c
}

// Categories returns the category names in rule order, ending with
// Unknown. The paper reports 59 categories total.
func (c *Classifier) Categories() []string {
	out := make([]string, 0, len(c.rules)+1)
	for i := range c.rules {
		out = append(out, c.rules[i].Name)
	}
	return append(out, Unknown)
}

// NumCategories returns the total category count including Unknown.
func (c *Classifier) NumCategories() int { return len(c.rules) + 1 }

// Rules exposes the rule table (read-only).
func (c *Classifier) Rules() []Rule { return c.rules }

// Classify returns the first matching category for the session command
// text, or Unknown, memoized by exact text.
func (c *Classifier) Classify(text string) string {
	if cat, ok := c.memo.Load(text); ok {
		return cat.(string)
	}
	cat := c.ClassifyStats(text, nil)
	c.memo.Store(text, cat)
	return cat
}

// ClassifyAll classifies a batch of session texts using up to `workers`
// goroutines and returns the category per input position. Only the
// distinct uncached texts are evaluated — the memo plus intra-batch
// dedup does the rest — so the cost scales with distinct new texts, not
// sessions. Output is identical to calling Classify per element.
func (c *Classifier) ClassifyAll(texts []string, workers int) []string {
	workers = parallel.Workers(workers)
	out := make([]string, len(texts))
	var misses []string
	seen := map[string]bool{}
	for _, t := range texts {
		if seen[t] {
			continue
		}
		if _, ok := c.memo.Load(t); !ok {
			seen[t] = true
			misses = append(misses, t)
		}
	}
	parallel.ForEach(len(misses), workers, 8, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			c.memo.Store(misses[i], c.ClassifyStats(misses[i], nil))
		}
	})
	for i, t := range texts {
		cat, _ := c.memo.Load(t)
		out[i] = cat.(string)
	}
	return out
}

// Memoized returns how many distinct texts the memo holds.
func (c *Classifier) Memoized() int {
	n := 0
	c.memo.Range(func(_, _ any) bool { n++; return true })
	return n
}

// Stats counts the probing work one classification did.
type Stats struct {
	// Candidates is how many rules the automaton pass left possibly
	// matching and were regex-verified.
	Candidates int
	// Skipped is how many rules the automaton pass eliminated without
	// running any regex.
	Skipped int
}

// ClassifyStats is the engine itself: one automaton scan, then the
// surviving rules' residual regexes in rule order. It neither reads nor
// fills the memo and adds the call's work counters to st (when non-nil).
// The daemons' ingest path (live.Pipeline.Observe) enters here: a memo
// keyed by attacker-chosen text would grow without bound in a process
// meant to stay up for years.
func (c *Classifier) ClassifyStats(text string, st *Stats) string {
	hits := c.hitsPool.Get().([]bool)
	clear(hits)
	c.ac.scan(text, hits)
	cat := Unknown
	for i := range c.progs {
		p := &c.progs[i]
		if !p.candidate(hits) {
			if st != nil {
				st.Skipped++
			}
			continue
		}
		if st != nil {
			st.Candidates++
		}
		if p.verify(text, hits) {
			cat = p.name
			break
		}
	}
	c.hitsPool.Put(hits)
	return cat
}

// IsGeneric reports whether name is one of the generic loader categories.
func (c *Classifier) IsGeneric(name string) bool {
	for i := range c.rules {
		if c.rules[i].Name == name {
			return c.rules[i].Generic
		}
	}
	return false
}
