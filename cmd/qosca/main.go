// Command qosca is the PKI bootstrap tool for the daemons: it creates
// a certificate authority and issues broker and user certificates as
// PEM files.
//
//	qosca ca   -out-dir pki -org Grid -name RootCA
//	qosca cert -out-dir pki -ca pki/ca -org Grid -unit DomainA -name bb-a -host bb
//	qosca cert -out-dir pki -ca pki/ca -org Grid -unit DomainA -name Alice
//
// "ca" writes <dir>/ca.cert.pem and <dir>/ca.key.pem. "cert" reads
// those and writes <name>.cert.pem / <name>.key.pem. Keys are Ed25519,
// written as PKCS#8 "PRIVATE KEY" blocks; a key or certificate of any
// other algorithm (an "EC PRIVATE KEY" from an earlier version) is
// refused and has to be issued again.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"e2eqos/internal/identity"
	"e2eqos/internal/pki"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "ca":
		runCA(os.Args[2:])
	case "cert":
		runCert(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: qosca ca|cert [flags]")
	os.Exit(2)
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "qosca:", err)
	os.Exit(1)
}

func runCA(args []string) {
	fs := flag.NewFlagSet("ca", flag.ExitOnError)
	outDir := fs.String("out-dir", "pki", "output directory")
	org := fs.String("org", "Grid", "organization")
	unit := fs.String("unit", "", "organizational unit")
	name := fs.String("name", "RootCA", "common name")
	_ = fs.Parse(args)

	ca, err := pki.NewCA(identity.NewDN(*org, *unit, *name))
	if err != nil {
		die(err)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		die(err)
	}
	if err := pki.SaveCertFile(filepath.Join(*outDir, "ca.cert.pem"), ca.CertificateDER()); err != nil {
		die(err)
	}
	if err := pki.SaveKeyFile(filepath.Join(*outDir, "ca.key.pem"), ca.Key().Private); err != nil {
		die(err)
	}
	fmt.Printf("created CA %s in %s\n", ca.DN(), *outDir)
}

func runCert(args []string) {
	fs := flag.NewFlagSet("cert", flag.ExitOnError)
	outDir := fs.String("out-dir", "pki", "output directory")
	caPrefix := fs.String("ca", "pki/ca", "path prefix of ca.cert.pem/ca.key.pem (directory or prefix)")
	org := fs.String("org", "Grid", "organization")
	unit := fs.String("unit", "", "organizational unit")
	name := fs.String("name", "", "common name (required)")
	host := fs.String("host", "", "optional DNS SAN (brokers use \"bb\")")
	days := fs.Int("days", 365, "validity in days")
	_ = fs.Parse(args)
	if *name == "" {
		die(fmt.Errorf("cert: -name is required"))
	}

	caCertPath := *caPrefix + ".cert.pem"
	caKeyPath := *caPrefix + ".key.pem"
	if st, err := os.Stat(*caPrefix); err == nil && st.IsDir() {
		caCertPath = filepath.Join(*caPrefix, "ca.cert.pem")
		caKeyPath = filepath.Join(*caPrefix, "ca.key.pem")
	}
	caCert, err := pki.LoadCertFile(caCertPath)
	if err != nil {
		die(err)
	}
	caKey, err := pki.LoadKeyFile(caKeyPath, caCert.SubjectDN())
	if err != nil {
		die(err)
	}

	ca, err := pki.LoadCA(caCert, caKey)
	if err != nil {
		die(err)
	}

	dn := identity.NewDN(*org, *unit, *name)
	kp, err := identity.GenerateKeyPair(dn)
	if err != nil {
		die(err)
	}
	var hosts []string
	if *host != "" {
		hosts = []string{*host}
	}
	cert, err := ca.IssueIdentity(dn, kp.Public(), time.Duration(*days)*24*time.Hour, hosts...)
	if err != nil {
		die(err)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		die(err)
	}
	certPath := filepath.Join(*outDir, *name+".cert.pem")
	keyPath := filepath.Join(*outDir, *name+".key.pem")
	if err := pki.SaveCertFile(certPath, cert.DER); err != nil {
		die(err)
	}
	if err := pki.SaveKeyFile(keyPath, kp.Private); err != nil {
		die(err)
	}
	fmt.Printf("issued %s -> %s, %s\n", dn, certPath, keyPath)
}
