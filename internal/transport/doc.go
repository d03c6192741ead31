// Package transport defines the pluggable communication API every
// distributed algorithm in this repository is written against: a Comm
// interface of MPI-flavored point-to-point and collective operations
// plus a Proc handle for rank identity and cost accounting.
//
// There is one implementation of Comm, in this package (comm.go):
// communicator identity and derivation (Split, Subgroup, CommID),
// bounds-checked point-to-point, and the collectives, which move data
// on linear fans through one member. A backend supplies a Link under it
// — raw Send/Recv between global ranks plus ChargeCollective, what a
// finished collective costs — and builds its world with NewWorld. A
// Link owes the communicator three things: sends are buffered (Send
// returns without waiting for the matching Recv), the payload is copied
// or encoded before Send returns, and messages with the same (comm,
// src, tag) are received in the order they were sent. The Mailbox, the
// FreeList and the Ledger in this package are the queue, the recycled
// message buffers and the msgs/words/flops account both links are built
// from. The two links:
//
//   - internal/simmpi: the in-process simulated runtime. P ranks are
//     goroutines in one process; messages carry the sender's virtual
//     clock, and a collective is charged the paper's exact α-β-γ
//     butterfly-schedule formula whatever moved, so a run doubles as a
//     cost measurement. This is the default backend and the one the
//     validated cost model is tested against.
//   - internal/transport/tcpnet: the real inter-process backend.
//     P ranks are OS processes connected by a full mesh of TCP
//     connections (a coordinator that assigns ranks plus cacqrd
//     worker processes); a collective is charged the messages and
//     words it moved, counters also report wire bytes, and every
//     blocking operation honors a job deadline.
//
// The interface is deliberately small — Send/Recv/SendRecv, the
// collectives of the paper's §II-B (Barrier, Bcast, Reduce, Allreduce,
// Gather, Allgather, Transpose), communicator construction (Split, Subgroup),
// and cost accounting (Compute, ChargeComm, Counters) — exactly what
// CQR2/ShiftedCQR3, TSQR, PGEQRF, MM3D and CFR3D consume. The
// conformance suite in internal/transport/conformancetest runs the
// communicator over both links; comm_test.go runs it over an in-memory
// fake and pins what every member of every collective moves.
//
// # Buffer ownership
//
// One rule covers every []float64 that crosses the interface:
//
//   - A payload (the data argument of Send, SendRecv and every
//     collective) is borrowed for the duration of the call. The link
//     copies or encodes it before returning and keeps no reference, so
//     the caller may hand in a matrix's own storage and reuse or mutate
//     it as soon as the call returns.
//   - A result (what Recv, SendRecv and the collectives return) is owned
//     by the caller: no other rank and no later call sees it, so it can
//     be wrapped as a matrix and mutated in place without a copy.
//   - A destination (the dst of RecvInto, SendRecvInto and the …Into
//     collectives) is storage the caller owned before the call and the
//     result is written into: the call returns dst itself, exactly as
//     long as the result, and allocates nothing. It must not overlap the
//     payload. A nil dst means "allocate", and the slice-returning
//     methods are the …Into forms with a nil dst — one body each.
//
// The single place payload and result meet is Bcast on its root, which
// returns the root's own payload rather than a copy of it and never
// touches its dst: the root owned that slice before the call and still
// does, but there the result aliases whatever the payload aliased.
// Reduce, Allreduce, Gather, Allgather and Transpose return dst, or
// fresh storage without one, on every member.
//
// Under the communicator the same rule is Link.Recv's contract. A link
// owns the buffer a message travels in from Send until the matching
// Recv. Recv with a dst long enough copies the payload into dst[:n] and
// keeps the buffer, to carry a later message of the run; Recv with a
// nil dst, or one too short, gives the buffer itself to the caller, for
// good. Either way the caller never holds storage the link will touch
// again. A link's buffers are its run's (a FreeList in the simulator's
// run and in a TCP job's node) and are garbage when the run returns.
//
// Two things the communicator itself holds are per rank and per job:
// the scratch a reduction over more than two members receives each
// contribution into (two members need none: the other's term is
// received where the sum will be), and nothing else.
package transport
