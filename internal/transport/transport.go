package transport

// Comm is an ordered group of ranks, analogous to an MPI communicator.
// Point-to-point operations address peers by their index within the
// communicator; collectives run over all members and must be called by
// every member. A Comm value is one rank's handle onto the logical
// communicator; it is not safe for concurrent use by multiple
// goroutines of the same rank. The implementation is comm.go's, on
// every backend; NewWorld makes a backend's first one.
type Comm interface {
	// Size returns the number of members.
	Size() int
	// Index returns this rank's position within the communicator.
	Index() int
	// GlobalRank returns the global rank of member i.
	GlobalRank(i int) int
	// Proc returns the owning process handle.
	Proc() Proc

	// Split partitions the communicator MPI_Comm_split-style: members
	// passing the same color form a new communicator ordered by key
	// (ties broken by parent index). Every member must call it.
	Split(color, key int) (Comm, error)
	// Subgroup creates a communicator from an explicit ordered list of
	// parent indices, without communication. Every parent member must
	// make the call. The members of a new communicator pass an
	// identical list, which gives them one id; disjoint sibling groups
	// form in one call, each member passing its own group's list; a
	// caller that is not on the list it passes receives nil.
	Subgroup(indices []int) Comm

	// Send transfers data to communicator member dst with the given
	// tag. Sends are buffered: they enqueue without waiting for the
	// matching Recv.
	Send(dst, tag int, data []float64) error
	// Recv blocks until a message from member src with the given tag
	// arrives and returns its payload.
	Recv(src, tag int) ([]float64, error)
	// SendRecv exchanges messages with a partner (both directions,
	// same tag) without deadlocking.
	SendRecv(partner, tag int, data []float64) ([]float64, error)

	// Barrier blocks until every member has entered.
	Barrier() error
	// Bcast distributes root's data to every member and returns it on
	// all of them. Non-root callers pass nil.
	Bcast(root int, data []float64) ([]float64, error)
	// Reduce sums the members' equal-length vectors onto root: the
	// reduction on root, nil elsewhere.
	Reduce(root int, data []float64) ([]float64, error)
	// Allreduce sums the members' equal-length vectors and returns the
	// result on every member.
	Allreduce(data []float64) ([]float64, error)
	// Gather concatenates the members' (possibly unequal) blocks in
	// member order onto root: the concatenation on root, nil elsewhere.
	Gather(root int, data []float64) ([]float64, error)
	// Allgather concatenates the members' (possibly unequal) blocks in
	// member order and returns the concatenation on every member.
	Allgather(data []float64) ([]float64, error)
	// Transpose swaps payloads with a partner member (the paper's
	// pairwise Transpose collective). partner == self returns a copy of
	// the input.
	Transpose(partner int, data []float64) ([]float64, error)

	// The destination forms: the same operations writing their result
	// into dst, storage the caller owned before the call, and returning
	// it — nothing is allocated, and the methods above are these with a
	// nil dst, which allocates. dst must be exactly as long as the
	// result and must not overlap data; either fault is an error naming
	// both lengths. Where a member has no result (Reduce and Gather off
	// the root) dst is not looked at, and a Bcast root, which gets data
	// itself back, never touches its dst.
	RecvInto(src, tag int, dst []float64) ([]float64, error)
	SendRecvInto(partner, tag int, data, dst []float64) ([]float64, error)
	BcastInto(root int, data, dst []float64) ([]float64, error)
	ReduceInto(root int, data, dst []float64) ([]float64, error)
	AllreduceInto(data, dst []float64) ([]float64, error)
	GatherInto(root int, data, dst []float64) ([]float64, error)
	AllgatherInto(data, dst []float64) ([]float64, error)
	TransposeInto(partner int, data, dst []float64) ([]float64, error)
}

// CommID derives the id of a child communicator from its parent's id,
// the parent's count of earlier Split/Subgroup calls, and what names the
// child within that call (Split: the color; Subgroup: the index list).
// It is FNV-1a over those integers, so every member computes the same
// id with no communication, and siblings of one call get distinct ids.
func CommID(parent uint64, seq int, key ...int) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * prime
			v >>= 8
		}
	}
	mix(parent)
	mix(uint64(seq))
	for _, k := range key {
		mix(uint64(k))
	}
	return h
}

// Proc is the handle a rank's body uses for identity and cost
// accounting. It is not safe for concurrent use by multiple goroutines.
type Proc interface {
	// Rank returns this process's global rank in [0, P).
	Rank() int
	// Size returns the total number of ranks in the run.
	Size() int
	// World returns the communicator containing every rank.
	World() Comm
	// Compute charges flops floating point operations — how algorithms
	// account for local BLAS-style work. Backends may return an error
	// to abort the rank (injected failures, cancellation).
	Compute(flops int64) error
	// ChargeComm charges communication cost: alphaUnits message
	// latencies and words 8-byte words moved. The communicator charges
	// point-to-point traffic through it, and a backend's
	// Link.ChargeCollective every collective, so the Msgs/Words
	// counters report per-processor α and β cost units.
	ChargeComm(alphaUnits, words int64)
	// SetPhase labels subsequent cost charges with a phase name and
	// returns the previous label. Backends that do not track phases
	// may ignore the label.
	SetPhase(label string) (prev string)
	// Counters returns a snapshot of the rank's accumulated costs.
	Counters() Counters
}

// Counters are one rank's accumulated cost measures. For the simulated
// backend, Msgs/Words/Flops are the paper's α-β-γ cost units and Time
// is virtual seconds; for real backends they count actual messages,
// 8-byte words and wall-clock seconds, and Bytes reports raw bytes on
// the wire (framing included; 0 for simulated runs, which move no real
// bytes).
type Counters struct {
	Msgs  int64
	Words int64
	Flops int64
	Bytes int64
	Time  float64
}

// Stats summarizes a completed distributed run in backend-independent
// form. Every backend's runner returns one.
type Stats struct {
	// Time is the critical-path time: the maximum rank clock (virtual
	// seconds for simmpi, wall seconds for real backends).
	Time float64
	// MaxMsgs, MaxWords, MaxFlops, MaxBytes are per-rank maxima — the
	// per-processor cost measures used throughout the paper.
	MaxMsgs  int64
	MaxWords int64
	MaxFlops int64
	MaxBytes int64
	// TotalMsgs, TotalWords, TotalFlops, TotalBytes aggregate over all
	// ranks.
	TotalMsgs  int64
	TotalWords int64
	TotalFlops int64
	TotalBytes int64
	// PerRank holds the final counters of every rank.
	PerRank []Counters
	// Phases holds per-phase per-rank maxima for charges made under
	// Proc.SetPhase labels (empty when no phases were set or the
	// backend does not track them).
	Phases map[string]Counters
}

// Accumulate folds one rank's counters into the summary maxima and
// totals (PerRank is the caller's to fill).
func (s *Stats) Accumulate(c Counters) {
	if c.Time > s.Time {
		s.Time = c.Time
	}
	if c.Msgs > s.MaxMsgs {
		s.MaxMsgs = c.Msgs
	}
	if c.Words > s.MaxWords {
		s.MaxWords = c.Words
	}
	if c.Flops > s.MaxFlops {
		s.MaxFlops = c.Flops
	}
	if c.Bytes > s.MaxBytes {
		s.MaxBytes = c.Bytes
	}
	s.TotalMsgs += c.Msgs
	s.TotalWords += c.Words
	s.TotalFlops += c.Flops
	s.TotalBytes += c.Bytes
}

// MergePhases folds one rank's per-phase counters into Phases, which
// keeps the maximum over ranks of each count under each label.
func (s *Stats) MergePhases(phases map[string]Counters) {
	for label, c := range phases {
		if s.Phases == nil {
			s.Phases = make(map[string]Counters)
		}
		agg := s.Phases[label]
		agg.Msgs = max(agg.Msgs, c.Msgs)
		agg.Words = max(agg.Words, c.Words)
		agg.Flops = max(agg.Flops, c.Flops)
		s.Phases[label] = agg
	}
}
