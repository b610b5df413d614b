package main

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"e2eqos/internal/bb"
	"e2eqos/internal/obs"
)

// startAdmin serves the broker's operator endpoint on addr:
//
//	/metrics      Prometheus text exposition of the broker registry
//	/top          JSON registry levels and quantiles at the request's
//	              instant (obs.TopSnapshot); `qosctl top` derives rates
//	/replication  JSON replica-group status (role, term, lag)
//	/promote      POST: stand this replica for election (failover)
//	/debug/pprof/ the standard Go profiler
//
// It binds synchronously (so a bad address fails startup, not five
// minutes into an incident) and then serves in the background. The
// returned closer stops the listener.
func startAdmin(addr string, broker *bb.BB, logger *slog.Logger) (func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("bbd: admin listen: %w", err)
	}
	reg := broker.MetricsRegistry()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WriteText(w)
	})
	mux.HandleFunc("/top", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(obs.NewTopSnapshot(broker.Domain(), reg))
	})
	mux.HandleFunc("/replication", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(broker.ReplicationStatus())
	})
	mux.HandleFunc("/promote", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		if err := broker.Promote(); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(broker.ReplicationStatus())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			logger.Error("admin server stopped", "err", err)
		}
	}()
	logger.Info("admin endpoint listening", "addr", ln.Addr().String())
	return srv.Close, nil
}
