package lin

import (
	"encoding/binary"
	"unsafe"
)

// HostBytes views data's own memory as its 8·len(data) bytes, every word
// in the host's byte order. It is the one byte view of float64 storage
// in the module: a tcpnet frame body and a stream panel on disk move as
// this view, with no per-element encoding.
func HostBytes(data []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(data))), 8*len(data))
}

// LittleEndianHost reports whether HostBytes lays each word out
// little-endian.
func LittleEndianHost() bool { return binary.NativeEndian.Uint16([]byte{1, 0}) == 1 }
