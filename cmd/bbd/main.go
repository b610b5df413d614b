// Command bbd is the bandwidth broker daemon: one per administrative
// domain. It serves the inter-BB signalling protocol over mutually
// authenticated TLS, enforcing the domain's policy file, SLA
// contracts and admission control.
//
//	bbd -config domain-a.json
//
// See cmd/bbd/config.go for the configuration schema, and deploy in
// cmd/bbd/bbd_test.go for a scripted three-domain TLS deployment.
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
	flag.Parse()
	if *configPath == "" {
		fmt.Fprintln(os.Stderr, "bbd: -config is required")
		os.Exit(2)
	}
	cfg, err := LoadConfig(*configPath)
	if err != nil {
		log.Fatal(err)
	}
	broker, ln, err := cfg.Build()
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
}
