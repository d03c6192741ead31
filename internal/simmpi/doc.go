// Package simmpi is the MPI substitute for the CA-CQR2 reproduction: a
// message-passing runtime in which every rank is a goroutine, point-to-point
// messages are matched by (communicator, source, tag), and collectives use
// the butterfly schedules the paper's §II-B cost analysis assumes.
//
// Each rank carries a virtual clock in the α-β-γ model. Local computation
// advances the clock by flops·γ; every message hop advances both endpoints
// by α + words·β, and a receiver can never complete a receive before the
// sender started the matching send. The maximum clock over all ranks at the
// end of a run is the critical-path execution time — precisely the quantity
// the paper's cost analysis bounds — while raw counters (messages, words,
// flops, per rank) let tests check the per-line cost tables.
//
// Entry points: Run/RunWithOptions spawn a world of ranks and return the
// aggregated Stats; Comm carries point-to-point operations (Send, Recv,
// SendRecv), communicator construction (Split, Subgroup), and the
// collectives (Barrier, Bcast, Reduce, Allreduce, Gather, Allgather,
// Transpose). Payloads are borrowed and results owned by the caller, the
// buffer rule of internal/transport.
package simmpi
