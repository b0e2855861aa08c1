package obs

import (
	"expvar"
	"net"
	"net/http"
	"sync"
)

// ExpvarFunc returns the registry as an expvar.Var (a JSON object of
// the flattened Snapshot), so existing expvar tooling can consume the
// honeynet's metrics.
func (r *Registry) ExpvarFunc() expvar.Func {
	return func() any { return r.Snapshot() }
}

var expvarMu sync.Mutex

// PublishExpvar publishes the registry under name in the process-global
// expvar namespace. expvar panics on duplicate names, so a name that is
// already taken (e.g. by an earlier registry in the same test process)
// is left alone and PublishExpvar reports false.
func (r *Registry) PublishExpvar(name string) bool {
	if r == nil {
		return false
	}
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvar.Get(name) != nil {
		return false
	}
	expvar.Publish(name, r.ExpvarFunc())
	return true
}

// Route pairs a mux pattern with its handler, for callers mounting
// extra admin endpoints (e.g. the live pipeline's /live snapshot).
type Route struct {
	Pattern string
	Handler http.Handler
}

// AdminMux builds the admin-endpoint mux the daemon serves on -admin:
//
//	/metrics     Prometheus text exposition of reg
//	/healthz     200 "ok", or 503 with the error text when healthy
//	             returns one (e.g. "draining")
//	/debug/vars  the process expvar namespace (see PublishExpvar)
//
// net/http/pprof handlers are mounted under /debug/pprof/ unless the
// binary is built with -tags nopprof (hardened builds can ship an admin
// port without profiling). Additional routes mount verbatim.
func AdminMux(reg *Registry, healthy func() error, extra ...Route) *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range extra {
		mux.Handle(rt.Pattern, rt.Handler)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if healthy != nil {
			if err := healthy(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.Handle("/debug/vars", expvar.Handler())
	attachPprof(mux)
	return mux
}

// ServeAdmin listens on addr and serves AdminMux(reg, healthy, extra...)
// there until the returned server is closed. The server's Addr is the
// bound address, so ":0" callers can print where it landed.
func ServeAdmin(addr string, reg *Registry, healthy func() error, extra ...Route) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: AdminMux(reg, healthy, extra...)}
	go func() { _ = srv.Serve(ln) }()
	return srv, nil
}
