// BufferOps: the transport buffer protocol (fabric.Transport
// Alloc/Release/Send plus tcpnet's internal bufPool) expressed as an Ops,
// so the summaries, buflifetime, and the gateway accounting pass
// (teardownpath) all agree on what acquires, releases, and transfers a
// frame.

package obligation

import (
	"go/ast"
	"go/types"

	"golapi/internal/analysis"
)

// BufferOps classifies calls against the fabric buffer-ownership
// contract. Zero value is unusable; construct with NewBufferOps.
type BufferOps struct {
	iface *types.Interface
}

// NewBufferOps returns the buffer protocol for pass's package, or nil when
// fabric.Transport is not in the import closure (nothing to track).
func NewBufferOps(pass *analysis.Pass) *BufferOps {
	iface := pass.NamedType(analysis.FabricPath, "Transport")
	if iface == nil {
		return nil
	}
	return &BufferOps{iface: iface.Underlying().(*types.Interface)}
}

func (o *BufferOps) Name() string { return "buffer" }

// Tracks: pooled frames are []byte.
func (o *BufferOps) Tracks(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// Classify maps a call to its buffer-ownership behaviour and the index of
// the buffer argument where one applies.
func (o *BufferOps) Classify(info *types.Info, call *ast.CallExpr) (Kind, int) {
	fn := analysis.Callee(info, call)
	if fn == nil {
		return OpNone, 0
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		recv := sig.Recv().Type()
		switch fn.Name() {
		case "Alloc":
			if o.implementsTransport(recv) && len(call.Args) == 1 {
				return OpAcquire, 0
			}
		case "Release":
			if o.implementsTransport(recv) && len(call.Args) == 1 {
				return OpRelease, 0
			}
		case "Send":
			if o.implementsTransport(recv) && len(call.Args) == 4 {
				return OpTransfer, 2
			}
		case "get":
			if analysis.IsMethodOf(fn, analysis.TcpnetPath, "bufPool", "get") {
				return OpAcquire, 0
			}
		case "put":
			if analysis.IsMethodOf(fn, analysis.TcpnetPath, "bufPool", "put") {
				return OpRelease, 0
			}
		}
	}
	if pkg := fn.Pkg(); pkg != nil {
		switch pkg.Path() {
		case "io", "encoding/binary", analysis.FabricPath:
			return OpBorrow, 0
		}
	}
	return OpNone, 0
}

// implementsTransport reports whether recv (as declared, value or pointer)
// satisfies fabric.Transport, or is the interface itself.
func (o *BufferOps) implementsTransport(recv types.Type) bool {
	if types.IsInterface(recv) {
		return types.Implements(recv, o.iface) || types.Identical(recv.Underlying(), o.iface)
	}
	return types.Implements(recv, o.iface)
}
