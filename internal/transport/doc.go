// Package transport defines the pluggable communication API every
// distributed algorithm in this repository is written against: a Comm
// interface of MPI-flavored point-to-point and collective operations
// plus a Proc handle for rank identity and cost accounting.
//
// Two backends implement it:
//
//   - internal/simmpi: the in-process simulated runtime. P ranks are
//     goroutines in one process; communication charges the paper's
//     exact α-β-γ butterfly-schedule formulas on a virtual clock, so a
//     run doubles as a cost measurement. This is the default backend
//     and the one the validated cost model is tested against.
//   - internal/transport/tcpnet: the real inter-process backend.
//     P ranks are OS processes connected by a full mesh of TCP
//     connections (a coordinator that assigns ranks plus cacqrd
//     worker processes); counters report actual messages and bytes
//     moved, and every blocking operation honors a job deadline.
//
// The interface is deliberately small — Send/Recv/SendRecv, the
// collectives of the paper's §II-B (Barrier, Bcast, Reduce, Allreduce,
// Gather, Allgather, Transpose), communicator construction (Split, Subgroup),
// and cost accounting (Compute, ChargeComm, Counters) — exactly what
// CQR2/ShiftedCQR3, TSQR, PGEQRF, MM3D and CFR3D consume. The
// conformance suite in internal/transport/conformancetest pins the
// semantics both backends must share.
//
// # Buffer ownership
//
// One rule covers every []float64 that crosses the interface:
//
//   - A payload (the data argument of Send, SendRecv and every
//     collective) is borrowed for the duration of the call. The backend
//     copies or encodes it before returning and keeps no reference, so
//     the caller may hand in a matrix's own storage and reuse or mutate
//     it as soon as the call returns.
//   - A result (what Recv, SendRecv and the collectives return) is owned
//     by the caller: no other rank and no later call sees it, so it can
//     be wrapped as a matrix and mutated in place without a copy.
//
// The single place the two meet is Bcast on its root, which returns the
// root's own payload rather than a copy of it: the root owned that slice
// before the call and still does, but there the result aliases whatever
// the payload aliased. Reduce, Allreduce, Gather, Allgather and
// Transpose always return fresh storage, on every member.
package transport
