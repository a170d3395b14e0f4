package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
)

// This file implements the CLIs' -pprof endpoint: net/http/pprof's
// profiling handlers plus the metrics registry, served from a dedicated
// mux (nothing global leaks into DefaultServeMux). The server is an
// observer-side convenience and has no interaction with simulation
// state.

// Serve starts an HTTP listener on addr exposing:
//
//	/debug/pprof/...  net/http/pprof (CPU, heap, goroutine, ...)
//	/metrics          o's registry snapshot as JSON
//
// It returns the bound address (useful with ":0") and serves in a
// background goroutine until the process exits.
func Serve(addr string, o *Observer) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: listening on %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := o.Registry().WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintf(os.Stderr, "obs: pprof server: %v\n", err)
		}
	}()
	return ln.Addr().String(), nil
}

// WriteFiles dumps the observer's state for -obs-out: the registry
// snapshot to prefix.metrics.json and the trace to prefix.trace.json
// (Chrome trace_event format — loads in chrome://tracing / Perfetto).
func (o *Observer) WriteFiles(prefix string) error {
	if o == nil {
		return nil
	}
	mf, err := os.Create(prefix + ".metrics.json")
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	if err := o.reg.WriteJSON(mf); err != nil {
		mf.Close()
		return fmt.Errorf("obs: writing metrics: %w", err)
	}
	if err := mf.Close(); err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	tf, err := os.Create(prefix + ".trace.json")
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	if err := o.tracer.WriteJSON(tf); err != nil {
		tf.Close()
		return fmt.Errorf("obs: writing trace: %w", err)
	}
	if err := tf.Close(); err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	return nil
}
