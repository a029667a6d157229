package transport

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"condmon/internal/ad"
	"condmon/internal/ce"
	"condmon/internal/cond"
	"condmon/internal/event"
	"condmon/internal/wire"
)

// lastWriteConn hands the sender's latest Write to the benchmark, which
// consumes it before the next Send can reuse the buffer.
type lastWriteConn struct {
	net.Conn
	last []byte
}

func (c *lastWriteConn) Write(b []byte) (int, error) { c.last = b; return len(b), nil }
func (c *lastWriteConn) Close() error                { return nil }

// alertPath is the life of an alert with the sockets taken out: a degree-2
// single-variable condition that fires on every update (the alert-storm
// shape), the mux sender coalescing into 32 KiB flushes, the listener's
// decode with its per-connection memory, AD-4, and the display string.
type alertPath struct {
	eval    *ce.Evaluator
	sender  *MuxSender
	conn    *lastWriteConn
	scratch []event.Alert
	names   wire.Names
	filter  ad.Filter
	seq     int64
	shown   int
}

func newAlertPath(tb testing.TB) *alertPath {
	tb.Helper()
	eval, err := ce.New("CE1", cond.MustParse("c", "x[0] - x[-1] > 0"))
	if err != nil {
		tb.Fatal(err)
	}
	opts := MuxSenderOptions{FlushEvery: time.Hour}
	opts.applyDefaults()
	p := &alertPath{eval: eval, conn: &lastWriteConn{}, filter: ad.NewAD4("x"), seq: 1_000_000}
	p.sender = &MuxSender{opts: opts, conn: p.conn, streams: make(map[uint32]*muxStream)}
	p.fire(tb) // fill the window
	return p
}

// fire feeds the next update; from the second on, every one raises an alert.
func (p *alertPath) fire(tb testing.TB) event.Alert {
	p.seq++
	a, _, err := p.eval.Feed(event.U("x", p.seq, float64(p.seq)))
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// decode is the listener's handling of one flushed Write: every frame
// through DecodeMuxInto, every alert to visit.
func (p *alertPath) decode(tb testing.TB, written []byte, visit func(event.Alert)) {
	for len(written) > 0 {
		n := int(binary.BigEndian.Uint32(written))
		m, itemErrs, rest, err := wire.DecodeMuxInto(written[lenPrefix:lenPrefix+n], p.scratch, &p.names)
		if err != nil || len(itemErrs) != 0 || len(rest) != 0 {
			tb.Fatalf("decode: %v %v, %d trailing bytes", err, itemErrs, len(rest))
		}
		for _, a := range m.Alerts {
			visit(a)
		}
		p.scratch = m.Alerts[:0]
		written = written[lenPrefix+n:]
	}
}

// step takes one alert from fire to (when its flush comes) display.
func (p *alertPath) step(tb testing.TB) {
	if err := p.sender.Send(1, p.fire(tb)); err != nil {
		tb.Fatal(err)
	}
	if w := p.conn.last; w != nil {
		p.conn.last = nil
		p.decode(tb, w, func(a event.Alert) {
			if ad.Offer(p.filter, a) {
				p.shown += len(a.String())
			}
		})
	}
}

// BenchmarkAlertPath is the per-alert figure outside the end-to-end
// harness: ns and allocations from fire to display in steady state, and the
// same stage by stage. Unlike Filters/AD-*, no construction is timed.
func BenchmarkAlertPath(b *testing.B) {
	b.Run("fire-send-decode-offer-string", func(b *testing.B) {
		p := newAlertPath(b)
		for i := 0; i < 2000; i++ { // grow the sender's buffers, warm the name cache
			p.step(b)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.step(b)
		}
		if p.shown == 0 {
			b.Fatal("nothing displayed")
		}
	})
	b.Run("fire", func(b *testing.B) {
		p := newAlertPath(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.fire(b)
		}
	})
	b.Run("send", func(b *testing.B) {
		p := newAlertPath(b)
		a := p.fire(b)
		for i := 0; i < 2000; i++ {
			_ = p.sender.Send(1, a)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.sender.Send(1, a); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The AD-side stages work through one flush after another of distinct
	// alerts, built outside the timer.
	flushes := func(b *testing.B, p *alertPath, alerts int) [][]byte {
		var out [][]byte
		for n := 0; n < alerts; n++ {
			if err := p.sender.Send(1, p.fire(b)); err != nil {
				b.Fatal(err)
			}
			if w := p.conn.last; w != nil {
				p.conn.last = nil
				out = append(out, append([]byte(nil), w...))
			}
		}
		return out
	}
	b.Run("decode", func(b *testing.B) {
		p := newAlertPath(b)
		fl := flushes(b, p, 4096)
		count := 0
		p.decode(b, fl[0], func(event.Alert) { count++ })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += count {
			p.decode(b, fl[0], func(event.Alert) {})
		}
	})
	b.Run("offer", func(b *testing.B) {
		p := newAlertPath(b)
		var decoded []event.Alert
		for _, w := range flushes(b, p, 1<<16) {
			p.decode(b, w, func(a event.Alert) { decoded = append(decoded, a) })
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%len(decoded) == 0 {
				b.StopTimer()
				p.filter = ad.NewAD4("x") // every alert of the pool is new to it again
				b.StartTimer()
			}
			if !ad.Offer(p.filter, decoded[i%len(decoded)]) {
				b.Fatal("in-order alert suppressed")
			}
		}
	})
	b.Run("string", func(b *testing.B) {
		p := newAlertPath(b)
		a := p.fire(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.shown += len(a.String())
		}
	})
}

// The whole path is also a test: what goes in comes out, in order, once.
func TestAlertPathDisplaysEveryAlertOnce(t *testing.T) {
	p := newAlertPath(t)
	const n = 5000
	for i := 0; i < n; i++ {
		p.step(t)
	}
	if err := p.sender.Flush(); err != nil {
		t.Fatal(err)
	}
	shown := 0
	p.decode(t, p.conn.last, func(a event.Alert) {
		if ad.Offer(p.filter, a) {
			shown++
		}
	})
	if p.shown == 0 || shown == 0 {
		t.Fatalf("displayed %d bytes before the last flush and %d alerts in it", p.shown, shown)
	}
	// Offered again, every one of them is a duplicate.
	p.decode(t, p.conn.last, func(a event.Alert) {
		if ad.Offer(p.filter, a) {
			t.Fatalf("alert %v displayed twice", a)
		}
	})
}
