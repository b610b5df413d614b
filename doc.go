// Package e2eqos is a from-scratch reproduction of "End-to-End
// Provision of Policy Information for Network QoS" (Sander, Adamson,
// Foster, Roy — HPDC 2001): a multi-domain bandwidth-broker
// architecture with hop-by-hop signalling, transitive trust via nested
// signed envelopes, cascaded capability delegation, tunnels, and a
// packet-level DiffServ simulator that reproduces the paper's
// misreservation attack.
//
// The implementation lives under internal/ (see DESIGN.md for the
// system inventory); the runnable entry points are the binaries under
// cmd/ and the programs under examples/. cmd/experiments regenerates
// every figure-level experiment, and bench/ is the repository's
// end-to-end benchmark.
package e2eqos
