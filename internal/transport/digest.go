package transport

import "condmon/internal/wire"

// This file completes the Section 2 checksum optimization end to end: CEs
// whose AD runs an equality-only filter (AD-1) can ship compact digests on
// the back links instead of full alerts. Frames are self-describing — the
// wire tag byte distinguishes alerts from digests — so one ADListener can
// serve a mixed fleet of CEs.

// SendDigest transmits an alert digest as a length-prefixed frame. Like
// Send, it returns the wrapped runtime.ErrClosed sentinel after Close.
func (s *TCPSender) SendDigest(d wire.Digest) error {
	body, err := wire.AppendDigest(nil, d)
	if err != nil {
		return err
	}
	return s.sendFrame(body, "digest")
}

// Digests returns the stream of digest frames received from CEs using the
// compact encoding. Full alerts keep arriving on Alerts. The channel
// closes with the listener.
func (l *ADListener) Digests() <-chan wire.Digest { return l.digests }
