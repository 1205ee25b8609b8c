package mpi

import (
	"encoding/binary"
	"fmt"
	"math"

	"golapi/internal/exec"
)

// Collectives built on the point-to-point layer, mirroring the subset of
// MPI the paper's era commonly used alongside send/receive. All use
// reserved tags above MaxTag, so user traffic cannot interfere, and all
// must be called by every rank (standard collective semantics). Like
// Barrier, they must not race wildcard (AnyTag) user receives.
const (
	tagBcast     = 0xFFFE
	tagReduce    = 0xFFFD
	tagGather    = 0xFFFC
	tagAllreduce = 0xFFFB
)

// Bcast broadcasts buf from root to every rank: on non-roots, buf is
// overwritten with root's contents. Binomial-tree dissemination.
func (t *Task) Bcast(ctx exec.Context, root int, buf []byte) error {
	if root < 0 || root >= t.N() {
		return fmt.Errorf("mpi: Bcast: root %d out of range", root)
	}
	n := t.N()
	// Rotate ranks so the root is virtual rank 0, then run the canonical
	// binomial tree: receive from the parent (virtual rank with our
	// lowest set bit cleared), then forward to children below that bit.
	vrank := (t.Self() - root + n) % n
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			parent := ((vrank &^ mask) + root) % n
			if _, err := t.recvInternal(ctx, parent, tagBcast, buf); err != nil {
				return err
			}
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if child := vrank + mask; child < n {
			dst := (child + root) % n
			if err := t.sendInternal(ctx, dst, tagBcast, buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReduceSum sums one float64 per rank at the root; non-roots receive 0 as
// the result. Gather-to-root reduction.
func (t *Task) ReduceSum(ctx exec.Context, root int, x float64) (float64, error) {
	if root < 0 || root >= t.N() {
		return 0, fmt.Errorf("mpi: ReduceSum: root %d out of range", root)
	}
	payload := make([]byte, 8)
	binary.BigEndian.PutUint64(payload, math.Float64bits(x))
	if t.Self() != root {
		return 0, t.sendInternal(ctx, root, tagReduce, payload)
	}
	sum := x
	buf := make([]byte, 8)
	for i := 0; i < t.N()-1; i++ {
		if _, err := t.recvInternal(ctx, AnySource, tagReduce, buf); err != nil {
			return 0, err
		}
		sum += math.Float64frombits(binary.BigEndian.Uint64(buf))
	}
	return sum, nil
}

// Allreduce combines buf element-wise across all ranks, leaving the full
// result in buf on every rank. combine folds a peer's contribution into
// dst (dst = dst ⊕ src) and must be associative and commutative.
//
// The schedule is recursive doubling — partners at doubling distances
// exchange full vectors, ceil(log2 N) rounds — the latency-optimal shape
// and the fair baseline against one-sided collectives at small sizes.
// Non-power-of-two jobs fold the first 2·(N-pow2) ranks into pairs first
// (odd ranks contribute to their even neighbour and later receive the
// result). A single reserved tag suffices: matching between one pair of
// ranks is guaranteed in order, and every round's partner is distinct.
func (t *Task) Allreduce(ctx exec.Context, buf []byte, combine func(dst, src []byte)) error {
	n := t.N()
	if n == 1 {
		return nil
	}
	pow2 := 1
	for pow2*2 <= n {
		pow2 *= 2
	}
	rem := n - pow2
	tmp := make([]byte, len(buf))

	// exchange sends buf to peer and folds peer's vector into buf. The
	// send must complete before buf is modified: the rendezvous protocol
	// streams from the caller's buffer after the CTS arrives.
	exchange := func(peer int) error {
		sreq := t.isend(ctx, peer, tagAllreduce, buf)
		if _, err := t.recvInternal(ctx, peer, tagAllreduce, tmp); err != nil {
			return err
		}
		if _, err := t.Wait(ctx, sreq); err != nil {
			return err
		}
		combine(buf, tmp)
		return nil
	}

	var vrank int
	switch {
	case t.Self() < 2*rem && t.Self()%2 == 1:
		// Folded-out rank: contribute, then wait for the result.
		if err := t.sendInternal(ctx, t.Self()-1, tagAllreduce, buf); err != nil {
			return err
		}
		_, err := t.recvInternal(ctx, t.Self()-1, tagAllreduce, buf)
		return err
	case t.Self() < 2*rem:
		if _, err := t.recvInternal(ctx, t.Self()+1, tagAllreduce, tmp); err != nil {
			return err
		}
		combine(buf, tmp)
		vrank = t.Self() / 2
	default:
		vrank = t.Self() - rem
	}

	for dist := 1; dist < pow2; dist *= 2 {
		vp := vrank ^ dist
		peer := 2 * vp
		if vp >= rem {
			peer = vp + rem
		}
		if err := exchange(peer); err != nil {
			return err
		}
	}

	if t.Self() < 2*rem {
		return t.sendInternal(ctx, t.Self()+1, tagAllreduce, buf)
	}
	return nil
}

// AllreduceSum computes the global sum of one float64 per rank on every
// rank, on the recursive-doubling Allreduce.
func (t *Task) AllreduceSum(ctx exec.Context, x float64) (float64, error) {
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, math.Float64bits(x))
	err := t.Allreduce(ctx, buf, func(dst, src []byte) {
		s := math.Float64frombits(binary.BigEndian.Uint64(dst)) +
			math.Float64frombits(binary.BigEndian.Uint64(src))
		binary.BigEndian.PutUint64(dst, math.Float64bits(s))
	})
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.BigEndian.Uint64(buf)), nil
}

// Gather collects each rank's fixed-size contribution at the root:
// out[r*len(contrib):...] holds rank r's bytes. out is only written at the
// root and must hold N*len(contrib) bytes there; other ranks may pass nil.
func (t *Task) Gather(ctx exec.Context, root int, contrib, out []byte) error {
	if root < 0 || root >= t.N() {
		return fmt.Errorf("mpi: Gather: root %d out of range", root)
	}
	if t.Self() != root {
		return t.sendInternal(ctx, root, tagGather, contrib)
	}
	if len(out) < t.N()*len(contrib) {
		return fmt.Errorf("mpi: Gather: out buffer %d bytes, need %d", len(out), t.N()*len(contrib))
	}
	copy(out[root*len(contrib):], contrib)
	buf := make([]byte, len(contrib))
	for i := 0; i < t.N()-1; i++ {
		st, err := t.recvInternal(ctx, AnySource, tagGather, buf)
		if err != nil {
			return err
		}
		if st.Len != len(contrib) {
			return fmt.Errorf("mpi: Gather: rank %d contributed %d bytes, want %d", st.Source, st.Len, len(contrib))
		}
		copy(out[st.Source*len(contrib):], buf)
	}
	return nil
}

// sendInternal/recvInternal bypass the user-tag validation for reserved
// internal tags.
func (t *Task) sendInternal(ctx exec.Context, dst, tag int, data []byte) error {
	req := t.isend(ctx, dst, tag, data)
	_, err := t.Wait(ctx, req)
	return err
}

func (t *Task) recvInternal(ctx exec.Context, src, tag int, buf []byte) (Status, error) {
	req := t.irecv(ctx, src, tag, buf, nil)
	return t.Wait(ctx, req)
}
