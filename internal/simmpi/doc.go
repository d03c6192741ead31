// Package simmpi is the MPI substitute for the CA-CQR2 reproduction: a
// message-passing runtime in which every rank is a goroutine and
// point-to-point messages are matched by (communicator, source, tag).
// The communicator itself — Split, Subgroup, point-to-point, the
// collectives — is internal/transport's one implementation; this package
// is the Link under it (link.go): mailbox messages stamped with the
// sender's clock, and the §II-B price list. Collectives are priced at
// the butterfly-schedule costs the paper's analysis assumes and moved by
// the shared linear fans; what moved is not what is charged.
//
// Each rank carries a virtual clock in the α-β-γ model. Local computation
// advances the clock by flops·γ; every message hop advances both endpoints
// by α + words·β, and a receiver can never complete a receive before the
// sender started the matching send. Collectives are causal, not lockstep:
// a member leaves at its own price after the latest send it had to wait
// for, so a Bcast root or a Reduce/Gather leaf waits for nobody while
// Barrier, Allreduce and Allgather still synchronise. The maximum clock
// over all ranks at the end of a run is the critical-path execution time
// — precisely the quantity the paper's cost analysis bounds — while raw
// counters (messages, words, flops, per rank) let tests check the
// per-line cost tables.
//
// Entry points: Run/RunWithOptions spawn a world of ranks and return the
// aggregated Stats; each body gets a *Proc, whose World is the
// transport.Comm of all ranks. Payloads are borrowed and results owned by
// the caller, the buffer rule of internal/transport.
//
// A message is a copy of its payload in a buffer from the run's free
// list (transport.FreeList, a field of the run's shared state): Send
// takes one and fills it, Recv into a destination copies it out and
// puts it back, so a message between two ranks that keep their own
// storage costs two copies and no allocation. Recv without a
// destination hands the buffer over instead and the list forgets it.
// The list, like the mailboxes, is reachable from the run only: when
// RunWithOptions returns, every buffer it ever made is garbage.
package simmpi
