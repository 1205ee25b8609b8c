package tcpnet

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"
)

// FuzzReadFrame drives readLoop — and through it readDirect — over one end
// of a net.Pipe with arbitrary bytes from a peer. Whatever arrives, the
// reader must not panic, must return once the stream ends, must deliver
// no plain frame larger than MaxPacket, and must write nothing outside the
// one region posted for direct frames: guard bytes on both sides of the
// region's backing array stay untouched.
func FuzzReadFrame(f *testing.F) {
	const (
		maxPacket = 64
		regionLen = 32
		guard     = 16
		token     = 7
	)
	plain := func(n uint32, body []byte) []byte {
		b := binary.BigEndian.AppendUint32(nil, n)
		return append(b, body...)
	}
	direct := func(n uint32, tok uint64, off uint32, body []byte) []byte {
		b := binary.BigEndian.AppendUint32(nil, directFlag|n)
		b = binary.BigEndian.AppendUint64(b, tok)
		b = binary.BigEndian.AppendUint32(b, off)
		return append(b, body...)
	}
	f.Add(plain(5, []byte("hello")))
	f.Add(direct(directSubheader+8, token, 4, bytes.Repeat([]byte{1}, 8)))
	// A direct length below the subheader.
	f.Add(binary.BigEndian.AppendUint32(nil, directFlag|(directSubheader-1)))
	// A direct frame for a token nobody posted.
	f.Add(direct(directSubheader+4, token+1, 0, []byte{1, 2, 3, 4}))
	// Offset plus length past the region.
	f.Add(direct(directSubheader+8, token, regionLen-4, bytes.Repeat([]byte{2}, 8)))
	// A plain frame larger than MaxPacket.
	f.Add(plain(maxPacket+1, bytes.Repeat([]byte{3}, maxPacket+1)))
	// Truncated payloads, plain and direct.
	f.Add(plain(10, []byte("abc")))
	f.Add(direct(directSubheader+16, token, 0, []byte{4, 4}))
	// The whole region in two frames, then a frame for the retired token.
	f.Add(append(append(
		direct(directSubheader+16, token, 0, bytes.Repeat([]byte{5}, 16)),
		direct(directSubheader+16, token, 16, bytes.Repeat([]byte{6}, 16))...),
		direct(directSubheader+4, token, 0, []byte{7, 7, 7, 7})...))

	f.Fuzz(func(t *testing.T, stream []byte) {
		e := pipeEndpoint(maxPacket)
		e.deliver = func(_ int, data []byte) {
			if len(data) > maxPacket {
				t.Errorf("delivered a %d-byte frame, MaxPacket %d", len(data), maxPacket)
			}
			pool.put(data)
		}
		e.directDone = func(int, uint64) {}
		backing := bytes.Repeat([]byte{0xa5}, guard+regionLen+guard)
		e.RecvInto(1, token, backing[guard:guard+regionLen:guard+regionLen])

		local, remote := net.Pipe()
		read := make(chan struct{})
		e.wg.Add(1)
		go func() {
			e.readLoop(1, &conn{c: local})
			close(read)
		}()
		wrote := make(chan struct{})
		go func() {
			remote.Write(stream) // fails once the reader drops the connection
			remote.Close()
			close(wrote)
		}()
		select {
		case <-read:
		case <-time.After(10 * time.Second):
			t.Fatal("readLoop did not return after the stream ended")
		}
		local.Close()
		<-wrote

		for i, b := range backing {
			if (i < guard || i >= guard+regionLen) && b != 0xa5 {
				t.Fatalf("byte %d of the region's backing array, outside the region, was written", i-guard)
			}
		}
	})
}
