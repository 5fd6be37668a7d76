// Package telescope implements DSCOPE, the paper's cloud-based interactive
// Internet telescope, in two modes:
//
//   - Simulated mode: a deterministic model of the deployment — a fleet of
//     short-lived instances (10-minute lifetime) cycling pseudorandomly
//     through cloud IPv4 space — that converts scanner blueprints into
//     captured TCP sessions, either directly or as byte-exact pcap files
//     (handshake, payload segments, teardown) for post-facto IDS replay.
//   - Live mode (listener.go): real TCP listeners that accept connections,
//     send no application-layer response, and record the client banner —
//     the actual DSCOPE instance behaviour, runnable on loopback.
//
// Both modes yield the same session records, so everything downstream of
// capture is mode-agnostic.
//
// # Streaming capture synthesis
//
// Everything the simulated telescope produces is derived lazily from one
// generator chain: a BlueprintSource (typically scanner.Stream) yields
// blueprints in time order, SessionSeq maps each to its session record, and
// frame synthesis turns a session into canonical wire frames one at a time.
// The materializing APIs — Sessions, WritePcap, SessionsToPcap — are thin
// wrappers that drain that chain, so the streamed and materialized paths are
// byte-identical by construction.
//
// Stream goes one step further: it splits the synthetic capture into
// StreamConfig.Segments virtual capture segments, partitioned by the
// reassembler's own flow hash (tcpasm.FlowShard), and exposes each as a
// pcapio.PacketSource. The ids capture scans consume the segments exactly
// as they would K pcap files — but the frames are synthesized on demand inside
// the decoder's NextInto call, into the decoder's own lent buffer, so a
// paper-scale study runs end to end with no capture bytes ever materialized
// in memory or on disk. Frame bytes depend only on the session (one builder
// reseed per session), never on segment count, which is what keeps the
// streamed capture byte-identical to the pcap path for any partition.
package telescope
