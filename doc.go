// Package symbiosys is a from-scratch Go reproduction of "SYMBIOSYS: A
// Methodology for Performance Analysis of Composable HPC Data Services"
// (Ramesh et al., IPDPS 2021): an integrated performance
// instrumentation, measurement, and analysis framework for
// microservice-based HPC data services, together with the entire Mochi
// software stack it instruments, rebuilt as simulation-friendly Go
// packages.
//
// The layers, bottom-up:
//
//   - internal/na        — OFI-like fabric: endpoints, RDMA, completion queues
//   - internal/abt       — Argobots-like tasking: execution streams, ULTs, pools
//   - internal/mercury   — Mercury-like RPC: proc codec, eager+RDMA path, bulk,
//     progress/trigger, and the PVAR introspection interface
//   - internal/margo     — Margo-like glue hosting the SYMBIOSYS instrumentation
//   - internal/batch     — the adaptive batch window behind margo's coalescer
//   - internal/core      — the paper's contribution: breadcrumb callpaths,
//     distributed tracing, measurement stages, profile/trace formats
//   - internal/telemetry — live sampler and /metrics exposition
//   - internal/policy    — §VII rule engine fed by the telemetry sampler
//   - internal/analysis  — profile summary, Zipkin trace stitching, saturation
//     series, system statistics, critical paths
//   - internal/kv        — storage backends: B-tree "map", "shardedmap"
//   - internal/ssg       — service group membership
//   - internal/services  — BAKE, SDSKV, Sonata, Mobject, HEPnOS, ekv microservices
//   - internal/workload  — ior and HEPnOS data-loader drivers
//   - internal/experiments — the paper's case studies (Figures 5–13, Tables IV–V)
//
// bench_test.go in this directory regenerates every table and figure of
// the paper's evaluation; see EXPERIMENTS.md for paper-vs-measured.
package symbiosys
