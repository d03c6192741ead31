package tcpnet

//lint:allow floatcompare a frame must decode to the bits that were encoded

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

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
			var scratch []byte
			var words transport.FreeList[float64]
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := readMeshFrame(bytes.NewReader(wire), &scratch, &words)
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

// TestFrameRoundTripAcrossChunks: a payload longer than one chunk grows
// as it arrives and decodes to what was encoded, through a recycled
// payload and scratch as well as through fresh ones.
func TestFrameRoundTripAcrossChunks(t *testing.T) {
	var scratch []byte
	var words transport.FreeList[float64]
	for _, n := range []int{0, 1, chunkElems, chunkElems + 1, 3*chunkElems + 17, 5} {
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(i) - 0.5
		}
		frame := make([]byte, meshFrameHeader+8*n)
		encodeMeshFrame(frame, 42, 3, -104, data)
		msg, wire, err := readMeshFrame(bytes.NewReader(frame), &scratch, &words)
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
