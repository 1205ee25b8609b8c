package tcpnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"testing"

	"golapi/internal/exec"
)

// pipeEndpoint is an endpoint with no mesh behind it, for driving readLoop
// over one end of a net.Pipe.
func pipeEndpoint(maxPacket int) *Endpoint {
	e := &Endpoint{
		rt:        exec.NewRealRuntime(),
		n:         2,
		maxPacket: maxPacket,
		conns:     make([]*conn, 2),
		posted:    make(map[postKey]*region),
	}
	e.dispatchFn = e.dispatch
	return e
}

// readCounter counts the reads readLoop makes on its connection.
type readCounter struct {
	net.Conn
	reads int
}

func (c *readCounter) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads++
	}
	return n, err
}

// TestBufferedReadKeepsFramesApart: one peer write carrying three plain
// frames, a direct frame larger than the read buffer and one more plain
// frame is delivered in order, with the direct payload landed in its region
// and nothing written outside it — in fewer reads than frames.
func TestBufferedReadKeepsFramesApart(t *testing.T) {
	const (
		regionLen = 3*classMid + 100
		guard     = 16
		token     = 9
	)
	e := pipeEndpoint(DefaultMaxPacket)
	var got []string
	e.deliver = func(_ int, data []byte) {
		got = append(got, string(data))
		pool.put(data)
	}
	e.directDone = func(src int, tok uint64) { got = append(got, fmt.Sprintf("direct %d from %d", tok, src)) }
	backing := bytes.Repeat([]byte{0xa5}, guard+regionLen+guard)
	region := backing[guard : guard+regionLen : guard+regionLen]
	e.RecvInto(1, token, region)

	payload := make([]byte, regionLen)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	var stream []byte
	for _, s := range []string{"a", "bb", "ccc"} {
		stream = binary.BigEndian.AppendUint32(stream, uint32(len(s)))
		stream = append(stream, s...)
	}
	stream = binary.BigEndian.AppendUint32(stream, directFlag|uint32(directSubheader+regionLen))
	stream = binary.BigEndian.AppendUint64(stream, token)
	stream = binary.BigEndian.AppendUint32(stream, 0)
	stream = append(stream, payload...)
	stream = binary.BigEndian.AppendUint32(stream, 1)
	stream = append(stream, 'd')

	local, remote := net.Pipe()
	rc := &readCounter{Conn: local}
	read := make(chan struct{})
	e.wg.Add(1)
	go func() {
		e.readLoop(1, &conn{c: rc})
		close(read)
	}()
	if _, err := remote.Write(stream); err != nil {
		t.Fatal(err)
	}
	remote.Close()
	<-read

	want := []string{"a", "bb", "ccc", fmt.Sprintf("direct %d from 1", token), "d"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("delivered %q, want %q", got, want)
	}
	if !bytes.Equal(region, payload) {
		t.Error("the direct payload did not land intact in its region")
	}
	for i, b := range backing {
		if (i < guard || i >= guard+regionLen) && b != 0xa5 {
			t.Fatalf("byte %d of the region's backing array, outside the region, was written", i-guard)
		}
	}
	if rc.reads >= len(want) {
		t.Errorf("%d reads for %d frames, want fewer: frames share the read buffer", rc.reads, len(want))
	}
}
