package tcpnet

//lint:allow floatcompare a frame must decode to the bits that were encoded

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cacqr/internal/lin"
	"cacqr/internal/transport"
)

// frameHeader is the 20 bytes that open a data frame of count elements.
func frameHeader(count uint32) []byte {
	hdr := make([]byte, meshFrameHeader)
	binary.BigEndian.PutUint64(hdr[0:], 7)
	binary.BigEndian.PutUint32(hdr[8:], 1)
	tag := int32(-101)
	binary.BigEndian.PutUint32(hdr[12:], uint32(tag))
	binary.BigEndian.PutUint32(hdr[16:], count)
	return hdr
}

// TestTruncatedFrameCommitsWhatArrived: a frame header is a claim. One
// that announces 2 GiB and then ends must cost the reader a chunk, not
// the 4 GiB the two up-front buffers used to take, and must be reported
// as a truncated frame — never as the clean EOF of a finished peer.
func TestTruncatedFrameCommitsWhatArrived(t *testing.T) {
	for _, tc := range []struct {
		name    string
		count   uint32
		arrived int // elements of body actually sent
		budget  uint64
	}{
		{"HeaderOnly", maxMeshElems - 1, 0, 1 << 20},
		{"OneChunkOfMany", maxMeshElems - 1, chunkElems, 2 << 20},
		{"ShortOfASmallFrame", 1000, 999, 1 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wire := append(frameHeader(tc.count), make([]byte, 8*tc.arrived)...)
			var words transport.FreeList[float64]
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := readMeshFrame(bytes.NewReader(wire), &words)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrTruncatedFrame) {
				t.Fatalf("got %v, want ErrTruncatedFrame", err)
			}
			if errors.Is(err, io.EOF) {
				t.Errorf("a truncated frame reads as a clean EOF: %v", err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= tc.budget {
				t.Errorf("allocated %d bytes for %d bytes received (budget %d)", got, len(wire), tc.budget)
			}
		})
	}
}

// encodeFrame is a whole data frame as Send and the writer put it on
// the wire: the header, then the payload's own bytes.
func encodeFrame(commID uint64, src, tag int, data []float64) []byte {
	hdr := meshHeader(commID, src, tag, len(data))
	return append(hdr[:], lin.HostBytes(data)...)
}

// TestFrameRoundTripAcrossChunks: a payload longer than one chunk grows
// as it arrives and decodes to what was encoded, through a recycled
// payload as well as through fresh ones.
func TestFrameRoundTripAcrossChunks(t *testing.T) {
	var words transport.FreeList[float64]
	for _, n := range []int{0, 1, chunkElems, chunkElems + 1, 3*chunkElems + 17, 5} {
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(i) - 0.5
		}
		frame := encodeFrame(42, 3, -104, data)
		msg, wire, err := readMeshFrame(bytes.NewReader(frame), &words)
		if err != nil {
			t.Fatalf("%d elements: %v", n, err)
		}
		if msg.Comm != 42 || msg.Src != 3 || msg.Tag != -104 || wire != int64(len(frame)) || len(msg.Data) != n {
			t.Fatalf("%d elements: decoded comm=%d src=%d tag=%d wire=%d len=%d", n, msg.Comm, msg.Src, msg.Tag, wire, len(msg.Data))
		}
		for i, v := range msg.Data {
			if v != data[i] {
				t.Fatalf("%d elements: element %d = %v, want %v", n, i, v, data[i])
			}
		}
		words.Put(msg.Data)
	}
}

// TestReadLoopFailsNodeOnTruncatedFrame: a peer that dies inside a frame
// fails the node — its rank's pending Recv returns the truncated-frame
// error at once instead of waiting out the job deadline as it did when
// the short read was mistaken for the peer's clean shutdown.
func TestReadLoopFailsNodeOnTruncatedFrame(t *testing.T) {
	ours, theirs := net.Pipe()
	n := newNode(0, 2, time.Now().Add(30*time.Second))
	n.attach(1, ours)
	n.start()
	defer n.shutdown()
	go func() {
		theirs.Write(frameHeader(maxMeshElems - 1)) //nolint:errcheck // the reader's verdict is the test
		theirs.Close()
	}()
	got := make(chan error, 1)
	go func() {
		_, err := n.box.Take(7, 1, -101)
		got <- err
	}()
	select {
	case err := <-got:
		if !errors.Is(err, ErrTruncatedFrame) {
			t.Fatalf("pending Recv returned %v, want ErrTruncatedFrame", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("node still healthy 5 s after its peer died inside a frame")
	}
}

// TestFrameBodyIsThePayloadsMemory pins the wire a Send puts on a mesh
// connection: the big-endian header, then the payload's float64s in
// host byte order — its own bytes, with no per-element encoding — and
// every byte of both counted.
func TestFrameBodyIsThePayloadsMemory(t *testing.T) {
	ours, theirs := net.Pipe()
	n := newNode(1, 2, time.Now().Add(30*time.Second))
	n.attach(0, ours)
	n.start()
	data := []float64{1.5, -2, math.Pi, math.Inf(-1), math.SmallestNonzeroFloat64, 0}
	if err := newProc(n).Send(7, 0, -101, data); err != nil {
		t.Fatal(err)
	}
	want := frameHeader(uint32(len(data)))
	for _, v := range data {
		want = binary.NativeEndian.AppendUint64(want, math.Float64bits(v))
	}
	got := make([]byte, len(want))
	if _, err := io.ReadFull(theirs, got); err != nil {
		t.Fatal(err)
	}
	n.shutdown()
	if !bytes.Equal(got, want) {
		t.Fatalf("wire\n got  %x\n want %x", got, want)
	}
	if wrote := n.bytes.Load(); wrote != int64(len(want)) {
		t.Errorf("counted %d wire bytes, want %d", wrote, len(want))
	}
}

// TestPingPongRecyclesOneFreeList: two nodes trading equal-size
// payloads over a pipe reach a steady state in one round. From then on
// every Send copies into the buffer a reader filled and Recv handed
// back, and every reader fills one a writer handed back — one free list
// per node serves both directions, and no round allocates a payload.
func TestPingPongRecyclesOneFreeList(t *testing.T) {
	a, b := net.Pipe()
	deadline := time.Now().Add(time.Minute)
	n0, n1 := newNode(0, 2, deadline), newNode(1, 2, deadline)
	n0.attach(1, a)
	n1.attach(0, b)
	n0.start()
	n1.start()
	defer n1.shutdown()
	defer n0.shutdown()
	p0, p1 := newProc(n0), newProc(n1)
	const size = 4096
	ping, dst0, dst1 := make([]float64, size), make([]float64, size), make([]float64, size)
	for i := range ping {
		ping[i] = float64(i)
	}
	round := func() {
		if err := p0.Send(7, 1, -101, ping); err != nil {
			t.Fatal(err)
		}
		if _, err := p1.Recv(7, 0, -101, dst1); err != nil {
			t.Fatal(err)
		}
		if err := p1.Send(7, 0, -102, dst1); err != nil {
			t.Fatal(err)
		}
		if _, err := p0.Recv(7, 1, -102, dst0); err != nil {
			t.Fatal(err)
		}
	}
	round()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rounds = 200
	allocs := testing.AllocsPerRun(rounds, round)
	runtime.ReadMemStats(&after)
	perRound := (after.TotalAlloc - before.TotalAlloc) / (rounds + 1)
	t.Logf("%.0f allocations, %d bytes per round of two %d-byte payloads", allocs, perRound, 8*size)
	if perRound >= 8*size/4 {
		t.Errorf("a round allocates %d bytes: payload buffers are not recycled (one payload is %d)", perRound, 8*size)
	}
	if dst0[size-1] != ping[size-1] {
		t.Errorf("round trip delivered %v, want %v", dst0[size-1], ping[size-1])
	}
}

// FuzzReadMeshFrame: whatever a peer sends, the reader never panics. It
// returns the io error of a short header (a clean io.EOF only when no
// byte came), refuses a count past the limit, reports a short body as
// ErrTruncatedFrame, or returns a message whose header and body view
// re-encode to exactly the bytes it consumed.
func FuzzReadMeshFrame(f *testing.F) {
	for _, n := range []int{0, 1, chunkElems, chunkElems + 1} {
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(i) - 0.5
		}
		frame := encodeFrame(42, 3, -104, data)
		f.Add(frame)
		for _, cut := range []int{0, meshFrameHeader - 1, meshFrameHeader, meshFrameHeader + 5, len(frame) - 1} {
			if cut < len(frame) {
				f.Add(frame[:cut])
			}
		}
	}
	f.Fuzz(func(t *testing.T, wire []byte) {
		var words transport.FreeList[float64]
		msg, consumed, err := readMeshFrame(bytes.NewReader(wire), &words)
		switch {
		case len(wire) == 0:
			if err != io.EOF {
				t.Fatalf("empty stream: %v, want io.EOF", err)
			}
		case len(wire) < meshFrameHeader:
			if err != io.ErrUnexpectedEOF {
				t.Fatalf("%d-byte header: %v, want io.ErrUnexpectedEOF", len(wire), err)
			}
		case binary.BigEndian.Uint32(wire[16:]) > maxMeshElems:
			if err == nil || errors.Is(err, ErrTruncatedFrame) {
				t.Fatalf("count past the limit: %v, want the limit error", err)
			}
		case len(wire) < meshFrameHeader+8*int(binary.BigEndian.Uint32(wire[16:])):
			if !errors.Is(err, ErrTruncatedFrame) || errors.Is(err, io.EOF) {
				t.Fatalf("short body: %v, want ErrTruncatedFrame", err)
			}
		case err != nil:
			t.Fatalf("whole frame: %v", err)
		default:
			hdr := meshHeader(msg.Comm, msg.Src, msg.Tag, len(msg.Data))
			if got := append(hdr[:], lin.HostBytes(msg.Data)...); int64(len(got)) != consumed || !bytes.Equal(got, wire[:consumed]) {
				t.Fatalf("consumed %d bytes that re-encode as %d different ones", consumed, len(got))
			}
		}
	})
}

// TestForeignPreambleRefusedAtSubmission: a coordinator that speaks
// another frame format — an older release's big-endian bodies, or
// host-order bodies from a host of the other byte order — gets a
// jobResult naming the mismatch at once, well inside the job deadline,
// and the worker closes the connection without running the job.
func TestForeignPreambleRefusedAtSubmission(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var ran atomic.Bool
	go Serve(ln, func(transport.Proc, []byte) error { ran.Store(true); return nil })
	addr := ln.Addr().String()
	for _, pre := range []byte{'C', 'L', 'B'} {
		if pre == preambleCtrl {
			continue
		}
		t.Run(string(pre), func(t *testing.T) {
			start := time.Now()
			deadline := start.Add(time.Minute)
			// What a coordinator of that format sends: its preamble, then
			// the job header, which no release has changed.
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(deadline)
			conn.Write([]byte{pre}) //nolint:errcheck // the reply is the test
			hdr := jobHeader{JobID: "foreign-" + string(pre), NP: 2, Rank: 1, Addrs: []string{"127.0.0.1:1", addr}, Deadline: deadline.UnixNano()}
			if err := writeJSONFrame(conn, hdr); err != nil {
				t.Fatal(err)
			}
			var res jobResult
			if err := readJSONFrame(conn, &res); err != nil {
				t.Fatalf("no jobResult: %v", err)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Errorf("refusal took %v", elapsed)
			}
			for _, want := range []string{ctrlFormats[pre], ctrlFormats[preambleCtrl]} {
				if !strings.Contains(res.Err, want) {
					t.Errorf("refusal %q does not name %q", res.Err, want)
				}
			}
			if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
				t.Errorf("after the refusal the connection reads %v, want io.EOF", err)
			}
		})
	}
	if ran.Load() {
		t.Error("the handler ran a refused job")
	}
}
