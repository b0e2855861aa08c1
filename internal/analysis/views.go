package analysis

import (
	"sync"
	"time"

	"honeynet/internal/session"
)

// views is the one place the dataset is read: every figure is a
// function of at most three derived views, each built the first time a
// figure asks and memoized on the World.
type views struct {
	sessOnce sync.Once
	sess     sessionsView
	cmdOnce  sync.Once
	cmd      commandsView
	catOnce  sync.Once
	cats     []string
}

// password3245 is the login credential section 9 ties to the mdrfckr
// campaign.
const password3245 = "3245gs5662d34"

// sessionsView is the section 3.3 tally plus the login tallies of
// section 8 and Figure 13: counts and IP sets, no retained records.
type sessionsView struct {
	stats DatasetStats
	// successes[password][month] counts successful SSH logins,
	// successTotals[password] their sum over the months.
	successes     map[string]map[time.Time]int
	successTotals map[string]int
	// The Cowrie default usernames: successful phil logins per month
	// and per client IP, how many of them ran no command, and richard
	// attempts per month.
	philOK, richardTries map[time.Time]int
	philIPs              map[string]int
	philNoCommands       int
	// Pure intrusions (login, no commands) with password3245.
	login3245 map[time.Time]int
	ips3245   map[string]bool
}

// sessions tallies every record in one serial pass; counts and set
// unions are order-invariant.
func (w *World) sessions() *sessionsView {
	v := &w.views
	s := &v.sess
	v.sessOnce.Do(func() {
		defer w.span("view.sessions").End()
		s.successes, s.successTotals = map[string]map[time.Time]int{}, map[string]int{}
		s.philOK, s.richardTries = map[time.Time]int{}, map[time.Time]int{}
		s.philIPs = map[string]int{}
		s.login3245, s.ips3245 = map[time.Time]int{}, map[string]bool{}
		ips := map[string]bool{}
		var byKind [4]int
		for _, r := range w.Records {
			s.stats.Total++
			ips[r.ClientIP] = true
			if !IsSSH(r) {
				if r.Protocol == session.ProtoTelnet {
					s.stats.Telnet++
				}
				continue
			}
			s.stats.SSH++
			kind := r.Kind()
			byKind[kind]++
			for _, l := range r.Logins {
				if l.Username == "richard" {
					s.richardTries[r.Month()]++
				}
				if !l.Success {
					continue
				}
				m := r.Month()
				if s.successes[l.Password] == nil {
					s.successes[l.Password] = map[time.Time]int{}
				}
				s.successes[l.Password][m]++
				s.successTotals[l.Password]++
				if l.Username == "phil" {
					s.philOK[m]++
					s.philIPs[r.ClientIP]++
					if len(r.Commands) == 0 {
						s.philNoCommands++
					}
				}
				if kind == session.Intrusion && l.Password == password3245 {
					s.login3245[m]++
					s.ips3245[r.ClientIP] = true
				}
			}
		}
		s.stats.Scanning, s.stats.Scouting = byKind[session.Scanning], byKind[session.Scouting]
		s.stats.Intrusion, s.stats.CommandExec = byKind[session.Intrusion], byKind[session.CommandExec]
		s.stats.UniqueClientIPs = len(ips)
	})
	return s
}

// downloadSession is a (session, download) join row: the fields of
// both that the storage figures read.
type downloadSession struct {
	id                  uint64
	start               time.Time
	clientIP, storageIP string
}

// commandsView is every SSH command session in record order with its
// command text joined once, and the (session, download) join over the
// SSH subset collected in the same pass.
type commandsView struct {
	recs  []*session.Record
	texts []string // texts[i] is the joined command text of recs[i]
	dls   []downloadSession
}

func (w *World) commands() *commandsView {
	v := &w.views
	c := &v.cmd
	v.cmdOnce.Do(func() {
		defer w.span("view.commands").End()
		for _, r := range w.Records {
			if !IsSSH(r) {
				continue
			}
			for _, d := range r.Downloads {
				if d.SourceIP != "" {
					c.dls = append(c.dls, downloadSession{id: r.ID, start: r.Start, clientIP: r.ClientIP, storageIP: d.SourceIP})
				}
			}
			if r.Kind() == session.CommandExec {
				c.recs = append(c.recs, r)
				c.texts = append(c.texts, r.CommandText())
			}
		}
	})
	return c
}

// categories returns the category of every commands().texts entry,
// classifying them all in one batch (parallel over distinct texts)
// the first time a figure that needs categories asks. A text's
// category does not depend on the batch it is in, so figures over a
// subset tally from this view.
func (w *World) categories() []string {
	v := &w.views
	v.catOnce.Do(func() {
		texts := w.commands().texts
		defer w.span("classify.batch").End()
		v.cats = w.Classifier.ClassifyAll(texts, w.workers())
	})
	return v.cats
}
