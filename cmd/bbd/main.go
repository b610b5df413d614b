// Command bbd is the bandwidth broker daemon: one per administrative
// domain. It serves the inter-BB signalling protocol over mutually
// authenticated TLS, enforcing the domain's policy file, SLA
// contracts and admission control.
//
//	bbd -config domain-a.json
//
// See cmd/bbd/config.go for the configuration schema and
// examples/quickstart for a scripted three-domain deployment.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"e2eqos/internal/signalling"
)

func main() {
	configPath := flag.String("config", "", "path to the broker JSON config (required)")
	callTimeout := flag.String("call-timeout", "", "override call_timeout, e.g. 2s (0 waits forever)")
	maxRetries := flag.Int("max-retries", -1, "override max_retries for downstream calls")
	retryBackoff := flag.String("retry-backoff", "", "override retry_backoff, e.g. 50ms")
	breakerThreshold := flag.Int("breaker-threshold", -1, "override breaker_threshold (0 disables the circuit breaker)")
	breakerCooldown := flag.String("breaker-cooldown", "", "override breaker_cooldown, e.g. 5s")
	maxPaths := flag.Int("max-paths", -1, "override max_paths: disjoint domain paths tried per reservation (0/1 = single-path)")
	splitParts := flag.Int("split-parts", -1, "override split_parts: max paths one reservation may be split across (0 disables)")
	stateDir := flag.String("state-dir", "", "override state_dir: journal broker state here and recover it on boot (empty = memory-only)")
	fsyncPolicy := flag.String("fsync-policy", "", "override fsync_policy: batch, always or never (default batch)")
	adminAddr := flag.String("admin-addr", "", "override admin_addr: serve /metrics, /top and /debug/pprof/ here (empty disables)")
	eventsDir := flag.String("events-dir", "", "override events_dir: ring-buffer sampled flight-recorder events here (empty disables)")
	sampleRate := flag.Float64("sample-rate", -1, "override sample_rate: flight-recorder sampling probability in [0,1]")
	logLevel := flag.String("log-level", "", "override log_level: debug, info, warn or error (default info)")
	logFormat := flag.String("log-format", "", "override log_format: text or json (default text)")
	flag.Parse()
	if *configPath == "" {
		fmt.Fprintln(os.Stderr, "bbd: -config is required")
		os.Exit(2)
	}
	cfg, err := LoadConfig(*configPath)
	if err != nil {
		log.Fatal(err)
	}
	if *callTimeout != "" {
		cfg.CallTimeout = *callTimeout
	}
	if *maxRetries >= 0 {
		cfg.MaxRetries = *maxRetries
	}
	if *retryBackoff != "" {
		cfg.RetryBackoff = *retryBackoff
	}
	if *breakerThreshold >= 0 {
		cfg.BreakerThreshold = *breakerThreshold
	}
	if *breakerCooldown != "" {
		cfg.BreakerCooldown = *breakerCooldown
	}
	if *maxPaths >= 0 {
		cfg.MaxPaths = *maxPaths
	}
	if *splitParts >= 0 {
		cfg.SplitParts = *splitParts
	}
	if *stateDir != "" {
		cfg.StateDir = *stateDir
	}
	if *fsyncPolicy != "" {
		cfg.FsyncPolicy = *fsyncPolicy
	}
	if *adminAddr != "" {
		cfg.AdminAddr = *adminAddr
	}
	if *eventsDir != "" {
		cfg.EventsDir = *eventsDir
	}
	if *sampleRate >= 0 {
		cfg.SampleRate = *sampleRate
	}
	if *logLevel != "" {
		cfg.LogLevel = *logLevel
	}
	if *logFormat != "" {
		cfg.LogFormat = *logFormat
	}
	broker, ln, recorder, err := cfg.Build()
	if err != nil {
		log.Fatal(err)
	}
	logger := broker.Logger()
	logger.Info("bbd listening", "dn", string(broker.DN()), "addr", ln.Addr())

	if cfg.AdminAddr != "" {
		closeAdmin, err := startAdmin(cfg.AdminAddr, broker, logger)
		if err != nil {
			log.Fatal(err)
		}
		defer closeAdmin()
	}

	srv := signalling.NewServer(broker, logger)
	go srv.Serve(ln)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	logger.Info("bbd shutting down")
	srv.Shutdown()
	broker.Close()
	// The recorder outlives the broker: in-flight handlers may still
	// append events until Close drains them.
	if err := recorder.Close(); err != nil {
		logger.Warn("flight recorder close", "err", err)
	}
}
