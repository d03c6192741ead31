package tcpnet

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"unsafe"

	"cacqr/internal/transport"
)

// Connection preamble bytes: the first byte on every connection says
// what the stream carries.
const (
	preambleMesh byte = 'M' // rank ↔ rank data-plane connection
	preamblePing byte = 'P' // liveness probe; the peer answers pingAck
)

const pingAck byte = 'O'

// ctrlFormats are the control preambles that open a job submission. A
// worker serves only preambleCtrl, this build's on this host (see Wire
// format in the package doc).
var ctrlFormats = map[byte]string{
	'C': "big-endian float64 bodies", // releases before host-order bodies
	'L': "host-order float64 bodies, little-endian host",
	'B': "host-order float64 bodies, big-endian host",
}

var preambleCtrl = func() byte {
	if binary.NativeEndian.Uint16([]byte{1, 0}) == 1 {
		return 'L'
	}
	return 'B'
}()

// jobHeader is the control message a coordinator sends to each worker
// to start a job.
type jobHeader struct {
	JobID string `json:"job_id"`
	NP    int    `json:"np"`
	Rank  int    `json:"rank"`
	// Addrs maps rank → dial address; Addrs[0] is the coordinator's
	// mesh listener.
	Addrs []string `json:"addrs"`
	// Deadline is the job deadline in Unix nanoseconds; 0 means none.
	Deadline int64 `json:"deadline,omitempty"`
	// Payload is opaque to the transport; the application puts the
	// job spec and this rank's input data there.
	Payload []byte `json:"payload,omitempty"`
}

// jobResult is the worker's reply on the control connection once its
// rank body has finished.
type jobResult struct {
	Err string `json:"err,omitempty"`
	// Is indexes the sentinels Err wraps in the list Serve was given.
	Is       []int                         `json:"is,omitempty"`
	Counters transport.Counters            `json:"counters"`
	Phases   map[string]transport.Counters `json:"phases,omitempty"`
}

// meshHello identifies a data-plane connection: which job it belongs to
// and which rank dialed.
type meshHello struct {
	JobID string `json:"job_id"`
	Rank  int    `json:"rank"`
}

// maxJSONFrame bounds control-plane messages (the payload carries a
// rank's input block, so allow large frames).
const maxJSONFrame = 1 << 30

// writeJSONFrame writes a length-prefixed JSON message.
func writeJSONFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("tcpnet: encode: %w", err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// readJSONFrame reads a length-prefixed JSON message into v.
func readJSONFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxJSONFrame {
		return fmt.Errorf("tcpnet: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// Mesh data frames: a fixed big-endian header followed by count
// float64s in host byte order, which the control preamble checked.
//
//	[8B commID][4B src][4B tag][4B count][count × 8B float64]
//
// tag is encoded as int32 two's complement (internal collective tags
// are negative).
const meshFrameHeader = 8 + 4 + 4 + 4

// maxMeshElems bounds a single data frame (2 GiB of float64s).
const maxMeshElems = 1 << 28

// chunkElems bounds how much of a frame's body is read, and so how much
// memory is committed, ahead of the bytes that have actually arrived.
const chunkElems = 1 << 16

// ErrTruncatedFrame reports a data frame whose body ended before the
// element count its header announced. It never matches io.EOF: a
// connection that closes between frames is a peer that finished, one
// that closes inside a frame is a peer that failed.
var ErrTruncatedFrame = errors.New("tcpnet: truncated data frame")

// meshHeader encodes the header of a data frame of count elements.
func meshHeader(commID uint64, src, tag, count int) (hdr [meshFrameHeader]byte) {
	binary.BigEndian.PutUint64(hdr[0:], commID)
	binary.BigEndian.PutUint32(hdr[8:], uint32(int32(src)))
	binary.BigEndian.PutUint32(hdr[12:], uint32(int32(tag)))
	binary.BigEndian.PutUint32(hdr[16:], uint32(count))
	return hdr
}

// bodyBytes views a payload's own memory as the body of its frame.
func bodyBytes(data []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(data))), 8*len(data))
}

// readMeshFrame reads one data-plane message, returning the decoded
// fields and the total bytes consumed from the wire. The header's
// element count is a claim, not a fact: the body is read chunkElems at
// a time straight into the payload, which comes from words and grows
// as the chunks arrive, so what is committed follows what was received.
func readMeshFrame(r io.Reader, words *transport.FreeList[float64]) (msg transport.Message, wireBytes int64, err error) {
	var hdr [meshFrameHeader]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return msg, 0, err
	}
	msg.Comm = binary.BigEndian.Uint64(hdr[0:])
	msg.Src = int(int32(binary.BigEndian.Uint32(hdr[8:])))
	msg.Tag = int(int32(binary.BigEndian.Uint32(hdr[12:])))
	count := int(binary.BigEndian.Uint32(hdr[16:]))
	if count > maxMeshElems {
		return msg, 0, fmt.Errorf("tcpnet: data frame of %d elements exceeds limit", count)
	}
	var data []float64
	for got := 0; got < count; {
		k := min(count-got, chunkElems)
		if got+k > len(data) {
			grown := words.Get(min(count, max(2*len(data), got+k)))
			copy(grown, data[:got])
			words.Put(data)
			data = grown
		}
		if _, err = io.ReadFull(r, bodyBytes(data[got:got+k])); err != nil {
			words.Put(data)
			//lint:ignore errwrap the cause is io.EOF when the peer died on a chunk boundary, and a truncated frame must never match a clean EOF
			return msg, 0, fmt.Errorf("%w: %d of %d elements arrived: %v", ErrTruncatedFrame, got, count, err)
		}
		got += k
	}
	msg.Data = data
	return msg, int64(meshFrameHeader + 8*count), nil
}
