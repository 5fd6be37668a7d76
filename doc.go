// Package repro is a from-scratch Go reproduction of "The CVE Wayback
// Machine: Measuring Coordinated Disclosure from Exploits against Two Years
// of Zero-Days" (IMC 2023).
//
// The public API lives in package repro/wayback; the substrates (telescope,
// IDS, TCP reassembly, rule language, datasets, lifecycle model) live under
// repro/internal. The capture-to-session front-end is one scan spine
// (internal/ids/scan.go), parallel end to end — allocation-free packet
// decode (packet.DecodeInto), flow-sharded TCP reassembly (tcpasm.Sharded),
// and per-segment pcap fan-out, which streams sessions to the match stage
// as they complete (ids.ScanCaptureStreamed hands each batch to a sink,
// ids.ScanCaptureSharded collects and sorts the events) — and provably
// output-identical to the serial reference ids.ScanCapture:
// scan_parity_test.go asserts byte-identical events and Table 4 for every
// shard width. Everything durable is an internal/wal log — one frame
// codec, one field codec (wal.Cursor) for the records inside the frames,
// one open/recover routine, one append-with-rollback and one compaction
// behind the event shards, commit journal, amendment log, fleet spool and
// watermarks, and the registry's journal and digests — and
// durability is tested by simulation: internal/fault is
// the seeded fault-injection substrate (a VFS with torn writes, ENOSPC,
// lying fsyncs and crash points, plus a partitioning network), and
// internal/simtest replays the whole sensor-fleet pipeline under seeded
// crash schedules, asserting exactly-once ingest and byte-identical output
// after every recovery. internal/timeline adds time travel over the event
// log: committed events are sealed into immutable time-partitioned segments
// with sparse time/CVE indexes, analysis aggregates are checkpointed, and
// Engine.AsOf answers any table or figure as of an earlier instant in time
// proportional to the events since the nearest checkpoint — served as
// ?asof=, /v1/diff and /v1/skill by internal/serve, and as the waybackctl
// asof subcommand offline. internal/registry makes the ruleset itself a
// versioned, hot-reloadable input: publications append dated deltas to a
// CRC-framed journal, each generation compiles (with an on-disk
// double-array automaton cache) into an engine the pipelines adopt by
// RCU-style swap between batches, and per-session digests let a rescan
// retroactively re-attribute history under earliest-published-match — so
// the store converges to what a cold run over the final ruleset would have
// produced (served as /v1/ruleset and the waybackctl rules subcommand).
// See README.md for the architecture and
// EXPERIMENTS.md for paper-vs-measured results; bench_test.go regenerates
// every table and figure of the paper's evaluation.
package repro
