package main

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"encoding/json"
	"encoding/pem"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"e2eqos/internal/bb"
	"e2eqos/internal/core"
	"e2eqos/internal/identity"
	"e2eqos/internal/obs"
	"e2eqos/internal/pki"
	"e2eqos/internal/signalling"
	"e2eqos/internal/transport"
	"e2eqos/internal/units"
)

// freePorts reserves n distinct loopback TCP ports.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	var listeners []net.Listener
	var ports []int
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners = append(listeners, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return ports
}

// deployment is a running three-domain TLS testbed.
type deployment struct {
	dir      string
	caPath   string
	addrs    []string
	userKey  *identity.KeyPair
	userCert *pki.Certificate
	roots    [][]byte
}

func deploy(t *testing.T) *deployment {
	t.Helper()
	dir := t.TempDir()
	ca, err := pki.NewCA(identity.NewDN("Grid", "", "RootCA"))
	if err != nil {
		t.Fatal(err)
	}
	caPath := filepath.Join(dir, "ca.cert.pem")
	if err := pki.SaveCertFile(caPath, ca.CertificateDER()); err != nil {
		t.Fatal(err)
	}

	ports := freePorts(t, 3)
	domains := []string{"DomainA", "DomainB", "DomainC"}
	var addrs []string
	var bbDNs []identity.DN
	for i, dom := range domains {
		addrs = append(addrs, fmt.Sprintf("127.0.0.1:%d", ports[i]))
		bbDNs = append(bbDNs, identity.NewDN("Grid", dom, "bb"))
	}

	// Broker identities.
	for i, dom := range domains {
		key, err := identity.GenerateKeyPair(bbDNs[i])
		if err != nil {
			t.Fatal(err)
		}
		cert, err := ca.IssueIdentity(key.DN, key.Public(), 0, "bb")
		if err != nil {
			t.Fatal(err)
		}
		if err := pki.SaveCertFile(filepath.Join(dir, dom+".cert.pem"), cert.DER); err != nil {
			t.Fatal(err)
		}
		if err := pki.SaveKeyFile(filepath.Join(dir, dom+".key.pem"), key.Private); err != nil {
			t.Fatal(err)
		}
	}

	// User identity.
	userKey, err := identity.GenerateKeyPair(identity.NewDN("Grid", "DomainA", "Alice"))
	if err != nil {
		t.Fatal(err)
	}
	userCert, err := ca.IssueIdentity(userKey.DN, userKey.Public(), 0)
	if err != nil {
		t.Fatal(err)
	}

	// Shared topology snippet.
	domCfgs := make([]DomainConfig, len(domains))
	for i, dom := range domains {
		domCfgs[i] = DomainConfig{Name: dom, BBDN: string(bbDNs[i])}
	}
	links := []LinkConfig{{A: "DomainA", B: "DomainB"}, {A: "DomainB", B: "DomainC"}}

	// Per-domain configs; each peers with its topology neighbours.
	neighbours := map[string][]int{"DomainA": {1}, "DomainB": {0, 2}, "DomainC": {1}}
	for i, dom := range domains {
		var peers []PeerConfig
		for _, j := range neighbours[dom] {
			peers = append(peers, PeerConfig{
				Domain:   domains[j],
				Addr:     addrs[j],
				CertFile: filepath.Join(dir, domains[j]+".cert.pem"),
			})
		}
		cfg := &FileConfig{
			Domain:    dom,
			Listen:    addrs[i],
			KeyFile:   filepath.Join(dir, dom+".key.pem"),
			CertFile:  filepath.Join(dir, dom+".cert.pem"),
			RootFiles: []string{caPath},
			Capacity:  "100Mb/s",
			Domains:   domCfgs,
			Links:     links,
			Peers:     peers,
			// Record every request so the deployment also exercises the
			// flight-recorder path end to end.
			EventsDir:  filepath.Join(dir, dom+"-events"),
			SampleRate: 1,
		}
		broker, ln, err := cfg.Build()
		if err != nil {
			t.Fatalf("building %s: %v", dom, err)
		}
		t.Cleanup(func() { ln.Close(); broker.Close() })
		go signalling.NewServer(broker, nil).Serve(ln)
	}
	return &deployment{
		dir:      dir,
		caPath:   caPath,
		addrs:    addrs,
		userKey:  userKey,
		userCert: userCert,
		roots:    [][]byte{ca.CertificateDER()},
	}
}

func (d *deployment) dialSource(t *testing.T) *signalling.Client {
	t.Helper()
	dialer := transport.NewTLSDialer(&transport.TLSConfig{
		CertDER:  d.userCert.DER,
		Key:      d.userKey.Private,
		RootDERs: d.roots,
	})
	var client *signalling.Client
	var err error
	for attempt := 0; attempt < 20; attempt++ {
		client, err = signalling.Dial(dialer, d.addrs[0])
		if err == nil {
			return client
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("dialing source broker: %v", err)
	return nil
}

func TestDaemonEndToEndReservationOverTLS(t *testing.T) {
	d := deploy(t)
	client := d.dialSource(t)
	defer client.Close()

	agent, err := core.NewUserAgent(d.userKey, d.userCert, nil)
	if err != nil {
		t.Fatal(err)
	}
	bbCert, err := pki.ParseCertificate(client.PeerCertDER())
	if err != nil {
		t.Fatal(err)
	}
	spec := &core.Spec{
		RARID:        core.NewRARID(),
		User:         d.userKey.DN,
		SrcHost:      "hostDomainA.example",
		DstHost:      "hostDomainC.example",
		SourceDomain: "DomainA",
		DestDomain:   "DomainC",
		Bandwidth:    10 * units.Mbps,
		Window:       units.NewWindow(time.Now().Add(time.Minute), time.Hour),
	}
	rar, err := agent.BuildRAR(spec, bbCert)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := signalling.NewReserveMessage(signalling.ModeEndToEnd, rar)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Call(msg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result == nil || !resp.Result.Granted {
		t.Fatalf("reservation failed: %+v", resp.Result)
	}
	if err := resp.Result.DecodeApprovals(); err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Approvals) != 3 {
		t.Fatalf("approvals = %d, want 3 (one per domain over real TLS)", len(resp.Result.Approvals))
	}

	// Status then cancel via the daemon.
	statusResp, err := client.Call(&signalling.Message{Type: signalling.MsgStatus, Status: &signalling.StatusPayload{RARID: spec.RARID}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if statusResp.Result == nil || !statusResp.Result.Granted {
		t.Fatalf("status failed: %+v", statusResp.Result)
	}
	cancelResp, err := client.Call(&signalling.Message{Type: signalling.MsgCancel, Cancel: &signalling.CancelPayload{RARID: spec.RARID}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cancelResp.Result == nil || !cancelResp.Result.Granted {
		t.Fatalf("cancel failed: %+v", cancelResp.Result)
	}
}

// TestBuildRefusesOtherKeyAlgorithm: a key file left over from before
// the tree had one signature scheme stops the daemon with the named
// error, the file's path and the way out.
func TestBuildRefusesOtherKeyAlgorithm(t *testing.T) {
	dir := t.TempDir()
	ca, err := pki.NewCA(identity.NewDN("Grid", "", "RootCA"))
	if err != nil {
		t.Fatal(err)
	}
	key, err := identity.GenerateKeyPair(identity.NewDN("Grid", "DomainA", "bb"))
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.IssueIdentity(key.DN, key.Public(), 0, "bb")
	if err != nil {
		t.Fatal(err)
	}
	cfg := &FileConfig{CertFile: filepath.Join(dir, "bb.cert.pem"), KeyFile: filepath.Join(dir, "bb.key.pem")}
	if err := pki.SaveCertFile(cfg.CertFile, cert.DER); err != nil {
		t.Fatal(err)
	}
	p256, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sec1, err := x509.MarshalECPrivateKey(p256)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfg.KeyFile, pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: sec1}), 0o600); err != nil {
		t.Fatal(err)
	}
	_, _, err = cfg.Build()
	if !errors.Is(err, identity.ErrKeyAlgorithm) {
		t.Fatalf("Build with an EC key file: err = %v, want identity.ErrKeyAlgorithm", err)
	}
	for _, want := range []string{cfg.KeyFile, "EC PRIVATE KEY", "re-issue with qosca"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestLoadConfigValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, []byte(`{"domain":"A"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(path); err == nil {
		t.Fatal("incomplete config accepted")
	}
	if _, err := LoadConfig(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(path); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

// TestLoadConfigRefusesUnknownKey: a key no setting has — a misspelt
// one, or one a later version dropped — stops the daemon with an error
// that names the key, where it used to be dropped without a word.
func TestLoadConfigRefusesUnknownKey(t *testing.T) {
	path := filepath.Join(t.TempDir(), "typo.json")
	base := `"domain":"A","listen":"127.0.0.1:0","key_file":"k.pem","cert_file":"c.pem"`
	for key, body := range map[string]string{
		"call_timout": `{` + base + `,"call_timout":"2s"}`,
		"prefixes":    `{` + base + `,"domains":[{"name":"A","bb_dn":"/CN=bb","prefixes":["hostA."]}]}`,
		"capacity":    `{` + base + `,"links":[{"a":"A","b":"B","capacity":"1Gb/s"}]}`,
	} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadConfig(path); err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("%s: LoadConfig = %v, want an error naming the key", key, err)
		}
	}
	if err := os.WriteFile(path, []byte(`{`+base+`,"call_timeout":"2s"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(path); err != nil {
		t.Errorf("the key spelt right: %v", err)
	}
}

// chainConfig writes a CA and the keys and certificates of three
// brokers, DomainA-DomainB-DomainC, into dir, and returns a builder of
// DomainA's config: it peers with DomainB at a dead address.
func chainConfig(t *testing.T, dir string) func() *FileConfig {
	t.Helper()
	ca, err := pki.NewCA(identity.NewDN("Grid", "", "RootCA"))
	if err != nil {
		t.Fatal(err)
	}
	caPath := filepath.Join(dir, "ca.cert.pem")
	if err := pki.SaveCertFile(caPath, ca.CertificateDER()); err != nil {
		t.Fatal(err)
	}
	var domCfgs []DomainConfig
	for _, dom := range []string{"DomainA", "DomainB", "DomainC"} {
		key, err := identity.GenerateKeyPair(identity.NewDN("Grid", dom, "bb"))
		if err != nil {
			t.Fatal(err)
		}
		cert, err := ca.IssueIdentity(key.DN, key.Public(), 0, "bb")
		if err != nil {
			t.Fatal(err)
		}
		if err := pki.SaveCertFile(filepath.Join(dir, dom+".cert.pem"), cert.DER); err != nil {
			t.Fatal(err)
		}
		if err := pki.SaveKeyFile(filepath.Join(dir, dom+".key.pem"), key.Private); err != nil {
			t.Fatal(err)
		}
		domCfgs = append(domCfgs, DomainConfig{Name: dom, BBDN: string(key.DN)})
	}
	return func() *FileConfig {
		return &FileConfig{
			Domain:    "DomainA",
			Listen:    "127.0.0.1:0",
			KeyFile:   filepath.Join(dir, "DomainA.key.pem"),
			CertFile:  filepath.Join(dir, "DomainA.cert.pem"),
			RootFiles: []string{caPath},
			Capacity:  "100Mb/s",
			Domains:   domCfgs,
			Links:     []LinkConfig{{A: "DomainA", B: "DomainB"}, {A: "DomainB", B: "DomainC"}},
			Peers:     []PeerConfig{{Domain: "DomainB", Addr: "127.0.0.1:1", CertFile: filepath.Join(dir, "DomainB.cert.pem")}},
		}
	}
}

// TestAdminEndpointServesTheRegistry: /metrics is the broker registry's
// text exposition, /top its levels at the request's instant, and an
// unreplicated broker reports so on /replication and refuses a GET of
// /promote.
func TestAdminEndpointServesTheRegistry(t *testing.T) {
	broker, ln, err := chainConfig(t, t.TempDir())().Build()
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	defer ln.Close()
	addr := fmt.Sprintf("127.0.0.1:%d", freePorts(t, 1)[0])
	closeAdmin, err := startAdmin(addr, broker, broker.Logger())
	if err != nil {
		t.Fatal(err)
	}
	defer closeAdmin()
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	reg := broker.MetricsRegistry()

	body, err := io.ReadAll(get("/metrics").Body)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	reg.WriteText(&want)
	if want.Len() == 0 || string(body) != want.String() {
		t.Errorf("/metrics is not the registry's exposition:\n%s\nwant:\n%s", body, want.String())
	}

	var top obs.TopSnapshot
	if err := json.NewDecoder(get("/top").Body).Decode(&top); err != nil {
		t.Fatal(err)
	}
	if top.Domain != "DomainA" || top.TimeNS == 0 || !reflect.DeepEqual(top.Values, reg.Snapshot()) {
		t.Errorf("/top = %+v, want DomainA's registry levels %v", top, reg.Snapshot())
	}

	var status bb.ReplicationStatus
	if err := json.NewDecoder(get("/replication").Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Replicated {
		t.Errorf("/replication = %+v, want Replicated false", status)
	}

	if resp := get("/promote"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /promote: %s, want 405", resp.Status)
	}
}

// TestBuildRefusesConfigThatDisagrees: a peer whose cert_file is another
// domain's broker, and a replica set that leaves out its own replica_id
// or has no state_dir, stop the daemon at boot with the broker's named
// error, not at the first reserve that needs them.
func TestBuildRefusesConfigThatDisagrees(t *testing.T) {
	dir := t.TempDir()
	config := chainConfig(t, dir)
	for _, row := range []struct {
		name string
		edit func(*FileConfig)
		want string
	}{
		{"a peer's cert_file is another domain's broker", func(c *FileConfig) {
			c.Peers[0].CertFile = filepath.Join(dir, "DomainC.cert.pem")
		}, "peer DomainB: certificate subject /O=Grid/OU=DomainC/CN=bb is not the topology's broker for that domain"},
		{"replica_peers without this broker's replica_id", func(c *FileConfig) {
			c.StateDir, c.ReplicaID, c.ReplicaPeers = t.TempDir(), 2, map[int]string{0: "127.0.0.1:1", 1: "127.0.0.1:2"}
		}, "the replica addresses leave out this broker's own replica id 2"},
		{"replica_peers without state_dir", func(c *FileConfig) {
			c.ReplicaPeers = map[int]string{0: "127.0.0.1:1", 1: "127.0.0.1:2"}
		}, "replication requires a state directory"},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := config()
			row.edit(cfg)
			broker, ln, err := cfg.Build()
			if err == nil {
				ln.Close()
				broker.Close()
				t.Fatalf("Build accepted the config, want an error mentioning %q", row.want)
			}
			if !strings.Contains(err.Error(), row.want) {
				t.Errorf("Build: err = %v, want it to mention %q", err, row.want)
			}
		})
	}
	// The same files, agreeing, build.
	broker, ln, err := config().Build()
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	broker.Close()
}

// TestBuildClosesTheBrokerWhenListenFails: a listen address already in
// use fails Build after the broker is up, and the broker goes with the
// error: its journal's group-commit goroutine is not left running.
func TestBuildClosesTheBrokerWhenListenFails(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	cfg := chainConfig(t, t.TempDir())()
	cfg.Listen, cfg.StateDir, cfg.EventsDir = taken.Addr().String(), t.TempDir(), t.TempDir()
	// Earlier tests' connections may still be winding down: take the
	// baseline once the count has stopped falling.
	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == base {
			break
		}
		base = n
	}
	broker, ln, err := cfg.Build()
	if err == nil {
		ln.Close()
		broker.Close()
		t.Fatalf("Build listened on %s, which is taken", cfg.Listen)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, started with %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
