package transport

// The front-link half of the audit evidence path: DMs publish CRC-framed
// prefix digests of their emitted update sequences ('G' frames) alongside
// the update stream, and CEs running with -audit forward them over the back
// link (MuxSender.SendEvidence) so an AD-side auditor can cross-check
// displayed values against what the source actually emitted. Evidence frames
// are an optional frame kind — decoders that predate the tag drop them whole
// (front links) or reset the stream (back link), which is why every hop is
// opt-in.

import (
	"fmt"

	"condmon/internal/wire"
)

// evidenceBuffer sizes the decoded-evidence channels. Evidence frames are
// periodic digests, orders of magnitude rarer than updates; a shallow
// buffer absorbs consumer jitter and overflow drops are survivable by
// design (the next frame's tail re-covers the lost one).
const evidenceBuffer = 256

// PublishEvidence multicasts one evidence frame to every CE endpoint on
// the variable's pinned sender lane. Like Publish, per-endpoint send
// errors are ignored: evidence rides the same lossy front links as the
// updates it attests, and the overlapping tails of consecutive frames make
// individual losses survivable.
func (p *UDPPublisher) PublishEvidence(e wire.Evidence) error {
	s := p.senderFor(e.Var)
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := wire.AppendEvidence(s.buf[:0], e)
	if err != nil {
		return err
	}
	if len(b) > p.maxDg {
		return fmt.Errorf("transport: evidence frame of %d bytes exceeds datagram bound", len(b))
	}
	s.buf = b
	for _, c := range s.conns {
		_, _ = c.Write(b) // best-effort: loss is part of the model
	}
	p.cDatagrams.Add(int64(len(s.conns)))
	return nil
}

// Evidence returns the stream of decoded DM evidence frames. Frames nobody
// consumes are dropped rather than backpressuring the read loops. The
// channel closes when the receiver is closed.
func (r *UDPReceiver) Evidence() <-chan wire.Evidence { return r.evidence }
