// Package tcpnet is the real inter-process transport backend: P ranks
// are OS processes connected by a full mesh of TCP connections, under
// the same transport.Comm the simulated runtime (internal/simmpi) runs
// under — which is what lets one body of distributed algorithm code run
// unchanged on either. The communicator is internal/transport's; this
// package is frames, connections, bootstrap, and the transport.Link
// that puts one frame on a peer's connection per message.
//
// # Topology and bootstrap
//
// A run has one coordinator (rank 0 — the process that holds the input
// and wants the answer, e.g. the cacqrd daemon) and NP−1 workers
// (cacqrd worker processes), each listening on one TCP address. Per
// job:
//
//  1. The coordinator dials every worker's listen address and sends a
//     control header: job id, that worker's rank, the full rank→address
//     table, the job deadline, and an opaque payload (the root package
//     puts the serialized job spec and the rank's input block there).
//     Rank 0's entry in the table is its job listener on 127.0.0.1, so
//     the workers run on the coordinator's host.
//  2. Every participant then completes the mesh under the rendezvous
//     rule "rank i dials every rank j < i, and accepts from every
//     j > i", identifying itself with a hello frame (job id + rank).
//     A worker's single listener serves both roles — control
//     connections and mesh connections carry a one-byte preamble — and
//     mesh connections that arrive before their job's control header
//     are parked in a rendezvous registry until the job claims them.
//  3. Each participant runs the job body against its tcpnet Proc; the
//     workers report their final cost counters (and any error) back on
//     the control connection, and the coordinator folds them into the
//     run's transport.Stats.
//
// # Wire format
//
// Every message is length-delimited. A mesh data frame is a 20-byte
// big-endian header (communicator id, source rank, tag, element count)
// and then the payload's own memory, float64s in host byte order, so
// receivers demultiplex into the same transport.Mailbox the simulator's
// ranks use — same tag-matching, same FIFO-per-(comm,src,tag) ordering.
// Communicator ids for Split and Subgroup are derived deterministically
// from the parent id and call sequence on every member with no extra
// communication.
//
// No element is converted. Send copies its operand once into a buffer
// from the node's one transport.FreeList; the peer's writer puts header
// and buffer on the wire in one writev and the buffer back on the list.
// A reader reads the body straight into a payload from the same list —
// at most 64 Ki elements at a time, growing as bytes arrive, since the
// header's count is only a claim — and Recv into a destination puts it
// back. A body that ends early is ErrTruncatedFrame — a failed peer,
// which fails the node — and never the io.EOF of a peer that finished
// between frames.
//
// A job submission's control preamble names the frame format and the
// host byte order ('L' or 'B'). A worker answers one it does not serve
// (the 'C' of releases that sent big-endian bodies, or the other byte
// order) with a jobResult naming the mismatch, so Run fails with
// "rank r: …": a coordinator and its workers must run the same release.
//
// # Deadlines and accounting
//
// The job deadline bounds every blocking operation: dials, control
// reads, mesh sends (should a peer stop draining) and — through one
// timer per job that fails the node with ErrDeadline — mailbox waits.
// A dead peer or an expired deadline fails the node, and every pending
// and subsequent operation on it returns the failure. Counters report
// actual traffic: a point-to-point call is charged as the communicator
// charges it on every backend (one message; SendRecv the larger
// payload), a collective the messages and 8-byte words this rank's
// link sends and receives carried for it (ChargeCollective charges
// what moved), plus raw bytes on the wire (framing included) — the
// same cost-accounting fields the simulated backend reports, measured
// instead of modeled.
package tcpnet
