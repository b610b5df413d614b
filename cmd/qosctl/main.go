// Command qosctl is the user-side client: it builds a signed RAR from
// the user's credentials and submits it to the source domain's
// bandwidth broker over mutually authenticated TLS.
//
//	qosctl -bb 127.0.0.1:7001 -key alice.key.pem -cert alice.cert.pem \
//	       -roots pki/ca.cert.pem reserve \
//	       -src hostA.example -dst hostC.example \
//	       -src-domain DomainA -dst-domain DomainC -bw 10Mb/s -duration 1h
//
//	qosctl ... cancel -rar RAR-abcdef
//	qosctl ... status -rar RAR-abcdef
//
//	qosctl ... tunnel-batch-alloc -rar RAR-abcdef -subs f1,f2 -bw 5Mb/s
//	qosctl ... tunnel-batch-release -rar RAR-abcdef -subs f1,f2
//
// Two telemetry subcommands need no credentials. `qosctl top -admin
// 127.0.0.1:7101` polls a broker's registry levels and renders each
// counter as its rate since the previous poll, with the gauges and
// latency quantiles; `qosctl events -dir /var/lib/bbd/events` reads
// its flight-recorder log.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"e2eqos/internal/core"
	"e2eqos/internal/identity"
	"e2eqos/internal/obs"
	"e2eqos/internal/pki"
	"e2eqos/internal/signalling"
	"e2eqos/internal/transport"
	"e2eqos/internal/units"
)

func die(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "qosctl: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	bbAddr := flag.String("bb", "127.0.0.1:7001", "source-domain broker address")
	keyFile := flag.String("key", "", "user key PEM (required)")
	certFile := flag.String("cert", "", "user certificate PEM (required)")
	roots := flag.String("roots", "", "comma-separated trusted CA certificate PEMs (required)")
	timeout := flag.Duration("timeout", 30*time.Second, "bound on connecting and on each call (0 waits forever)")
	flag.Parse()
	if flag.NArg() < 1 {
		die("usage: qosctl [flags] reserve|cancel|status|tunnel-batch-alloc|tunnel-batch-release|events|top [command flags]")
	}
	// events reads the on-disk flight-recorder log and top polls the
	// plain-HTTP admin endpoint: neither signs anything nor dials the
	// signalling port, so neither needs the TLS identity below.
	switch flag.Arg(0) {
	case "events":
		runEvents(flag.Args()[1:])
		return
	case "top":
		runTop(flag.Args()[1:])
		return
	}
	if *keyFile == "" || *certFile == "" || *roots == "" {
		die("-key, -cert and -roots are required")
	}

	cert, err := pki.LoadCertFile(*certFile)
	if err != nil {
		die("%v", err)
	}
	key, err := pki.LoadKeyFile(*keyFile, cert.SubjectDN())
	if err != nil {
		die("%v", err)
	}
	var rootDERs [][]byte
	for _, p := range strings.Split(*roots, ",") {
		root, err := pki.LoadCertFile(strings.TrimSpace(p))
		if err != nil {
			die("%v", err)
		}
		rootDERs = append(rootDERs, root.DER)
	}
	dialer := transport.NewTLSDialer(&transport.TLSConfig{CertDER: cert.DER, Key: key.Private, RootDERs: rootDERs})
	dialer.Timeout = *timeout
	client, err := signalling.Dial(dialer, *bbAddr)
	if err != nil {
		die("dialing broker: %v", err)
	}
	defer client.Close()

	switch flag.Arg(0) {
	case "reserve":
		runReserve(client, *timeout, key, cert, flag.Args()[1:])
	case "cancel":
		runSimple(client, *timeout, signalling.MsgCancel, flag.Args()[1:])
	case "status":
		runSimple(client, *timeout, signalling.MsgStatus, flag.Args()[1:])
	case "tunnel-batch-alloc":
		runTunnelBatch(client, *timeout, key, signalling.OpAlloc, flag.Args()[1:])
	case "tunnel-batch-release":
		runTunnelBatch(client, *timeout, key, signalling.OpRelease, flag.Args()[1:])
	default:
		die("unknown command %q", flag.Arg(0))
	}
}

// runTunnelBatch allocates or releases sub-flows inside an established
// tunnel in one round trip, with tunnel-batch-alloc / -release (-subs;
// one sub-flow is a batch of one op). The broker it talks to applies
// the ops at its own endpoint only; a user driving a tunnel themselves
// sends the same batch to the brokers at both ends. The batch's Seq is
// the wall clock in ns unless -seq pins it, and it is printed, so a
// user whose connection died can retransmit the identical batch with
// -seq and get the recorded answer instead of a double admission.
// qosctl acknowledges nothing: a broker holds its answers up to a
// per-sender cap.
func runTunnelBatch(client *signalling.Client, timeout time.Duration, key *identity.KeyPair, action signalling.TunnelOpAction, args []string) {
	name := "tunnel-batch-" + string(action)
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	rar := fs.String("rar", "", "tunnel RAR id (required)")
	subs := fs.String("subs", "", "comma-separated sub-flow ids (required)")
	bwStr := fs.String("bw", "1Mb/s", "per-sub-flow bandwidth (alloc only)")
	seq := fs.Int64("seq", 0, "batch sequence number to reuse when retransmitting (default: the wall clock in ns)")
	_ = fs.Parse(args)
	if *rar == "" || *subs == "" {
		die("%s: -rar and -subs are required", name)
	}
	var bw units.Bandwidth
	if action == signalling.OpAlloc {
		var err error
		if bw, err = units.ParseBandwidth(*bwStr); err != nil {
			die("%v", err)
		}
	}
	payload := &signalling.TunnelBatchPayload{
		TunnelRARID: *rar,
		Seq:         *seq,
		User:        key.DN,
	}
	if payload.Seq == 0 {
		payload.Seq = time.Now().UnixNano()
	}
	for _, sub := range strings.Split(*subs, ",") {
		op := signalling.TunnelOp{Action: action, SubFlowID: strings.TrimSpace(sub)}
		if action == signalling.OpAlloc {
			op.Bandwidth = int64(bw)
		}
		payload.Ops = append(payload.Ops, op)
	}
	if err := payload.Validate(); err != nil {
		die("%s: %v", name, err)
	}
	resp, err := client.Call(&signalling.Message{Type: signalling.MsgTunnelBatch, TunnelBatch: payload}, timeout)
	if err != nil {
		die("%v", err)
	}
	if resp.Result == nil {
		die("broker sent no result")
	}
	fmt.Printf("batch %d: %d ops, granted=%t", payload.Seq, len(payload.Ops), resp.Result.Granted)
	if !resp.Result.Granted {
		fmt.Printf(" (%s)", resp.Result.Reason)
	}
	fmt.Println()
	for _, r := range resp.Result.BatchResults {
		status := "granted"
		if !r.Granted {
			status = "denied: " + r.Reason
		}
		fmt.Printf("  %s/%s %s\n", *rar, r.SubFlowID, status)
	}
	if !resp.Result.Granted {
		os.Exit(1)
	}
}

func runReserve(client *signalling.Client, timeout time.Duration, key *identity.KeyPair, cert *pki.Certificate, args []string) {
	fs := flag.NewFlagSet("reserve", flag.ExitOnError)
	src := fs.String("src", "", "source host (required)")
	dst := fs.String("dst", "", "destination host (required)")
	srcDomain := fs.String("src-domain", "", "source domain (required)")
	dstDomain := fs.String("dst-domain", "", "destination domain (required)")
	bwStr := fs.String("bw", "10Mb/s", "bandwidth")
	startIn := fs.Duration("start-in", time.Minute, "reservation start offset from now")
	duration := fs.Duration("duration", time.Hour, "reservation duration")
	tunnelFlag := fs.Bool("tunnel", false, "request an aggregate tunnel reservation")
	cpuHandle := fs.String("cpu-handle", "", "linked CPU reservation handle at the destination")
	traceFlag := fs.Bool("trace", false, "ask every hop to record a span; print the per-hop timeline")
	_ = fs.Parse(args)
	if *src == "" || *dst == "" || *srcDomain == "" || *dstDomain == "" {
		die("reserve: -src, -dst, -src-domain and -dst-domain are required")
	}
	bw, err := units.ParseBandwidth(*bwStr)
	if err != nil {
		die("%v", err)
	}
	agent, err := core.NewUserAgent(key, cert, nil)
	if err != nil {
		die("%v", err)
	}
	spec := &core.Spec{
		RARID:        core.NewRARID(),
		User:         key.DN,
		SrcHost:      *src,
		DstHost:      *dst,
		SourceDomain: *srcDomain,
		DestDomain:   *dstDomain,
		Bandwidth:    bw,
		Window:       units.NewWindow(time.Now().Add(*startIn), *duration),
		Tunnel:       *tunnelFlag,
	}
	if *cpuHandle != "" {
		spec.LinkedHandles = map[string]string{"cpu": *cpuHandle}
	}
	// The TLS handshake already gave us the broker's certificate: the
	// RAR is addressed (and the capability delegated) to it.
	bbCert, err := pki.ParseCertificate(client.PeerCertDER())
	if err != nil {
		die("broker certificate: %v", err)
	}
	rar, err := agent.BuildRAR(spec, bbCert)
	if err != nil {
		die("%v", err)
	}
	msg, err := signalling.NewReserveMessage(signalling.ModeEndToEnd, rar)
	if err != nil {
		die("%v", err)
	}
	if *traceFlag {
		msg.Reserve.TraceID = obs.NewTraceID()
	}
	resp, err := client.Call(msg, timeout)
	if err != nil {
		die("%v", err)
	}
	printResult(spec.RARID, resp)
}

func runSimple(client *signalling.Client, timeout time.Duration, typ signalling.MsgType, args []string) {
	fs := flag.NewFlagSet(string(typ), flag.ExitOnError)
	rar := fs.String("rar", "", "RAR id (required)")
	_ = fs.Parse(args)
	if *rar == "" {
		die("%s: -rar is required", typ)
	}
	msg := &signalling.Message{Type: typ}
	switch typ {
	case signalling.MsgCancel:
		msg.Cancel = &signalling.CancelPayload{RARID: *rar}
	case signalling.MsgStatus:
		msg.Status = &signalling.StatusPayload{RARID: *rar}
	}
	resp, err := client.Call(msg, timeout)
	if err != nil {
		die("%v", err)
	}
	printResult(*rar, resp)
}

func printResult(rarID string, resp *signalling.Message) {
	if resp.Result == nil {
		die("broker sent no result")
	}
	granted, err := writeResult(os.Stdout, rarID, resp.Result)
	if err != nil {
		die("%v", err)
	}
	if !granted {
		os.Exit(1)
	}
}

// writeResult writes an answer as qosctl prints it and reports whether
// it granted. A grant's statements are listed; a granted answer without
// approvals — a status or cancel answer — lists none.
func writeResult(w io.Writer, rarID string, r *signalling.ResultPayload) (bool, error) {
	if !r.Granted {
		fmt.Fprintf(w, "DENIED %s: %s\n", rarID, r.Reason)
		writeTrace(w, r)
		return false, nil
	}
	fmt.Fprintf(w, "GRANTED %s handle=%s\n", rarID, r.Handle)
	if err := r.DecodeApprovals(); err != nil {
		return true, err
	}
	if len(r.Approvals) > 0 {
		writeStatements(w, r.Approvals)
	}
	for _, k := range obs.SortedKeys(r.PolicyInfo) {
		fmt.Fprintf(w, "  info: %s=%s\n", k, r.PolicyInfo[k])
	}
	writeTrace(w, r)
	return true, nil
}

// writeStatements lists a grant's statements, each signed by the
// destination of one path over that path's claims, and their claims.
func writeStatements(w io.Writer, approvals []signalling.DomainApproval) {
	stmts, err := signalling.Statements(approvals)
	if err != nil {
		fmt.Fprintf(w, "  %v\n", err)
		return
	}
	for _, claims := range stmts {
		fmt.Fprintf(w, "  granted: statement by %s over %d claims\n", claims[0].Domain, len(claims))
		for _, c := range claims {
			fmt.Fprintf(w, "    claim: domain=%s bb=%s handle=%s\n", c.Domain, c.BBDN, c.Handle)
		}
	}
}

// writeTrace renders the per-hop timeline of a traced reserve; on a
// denial it names the hop that refused (or timed out) and shows where
// the chain's time went.
func writeTrace(w io.Writer, r *signalling.ResultPayload) {
	if len(r.Trace) == 0 {
		return
	}
	fmt.Fprint(w, obs.RenderTimeline(r.TraceID, r.Trace))
}
