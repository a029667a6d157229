// Package wire encodes updates and alerts for transmission over real
// links (internal/transport) and trace files (internal/workload). The
// format is a compact, explicit big-endian binary layout with no reflection
// and no versioned schema — a deliberate match for the paper's
// low-capability Data Monitor devices.
//
// The package also implements the optimization noted in Section 2: filters
// that only compare histories for equality (duplicate detection) do not
// need full histories on the wire — a Digest carrying the per-variable
// latest sequence numbers plus a checksum of the full histories suffices.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"condmon/internal/event"
)

// Message type tags.
const (
	tagUpdate   byte = 'U'
	tagAlert    byte = 'A'
	tagDigest   byte = 'D'
	tagBatch    byte = 'B'
	tagMux      byte = 'M'
	tagEvidence byte = 'G'
)

// maxStringLen bounds encoded names; longer inputs are rejected rather
// than truncated.
const maxStringLen = math.MaxUint16

// DecodeError reports malformed wire data.
type DecodeError struct {
	Msg string
}

// Error implements error.
func (e *DecodeError) Error() string { return "wire: " + e.Msg }

func errf(format string, args ...any) error {
	return &DecodeError{Msg: fmt.Sprintf(format, args...)}
}

// AppendUpdate appends the encoding of u to dst and returns the extended
// slice.
func AppendUpdate(dst []byte, u event.Update) ([]byte, error) {
	if len(u.Var) > maxStringLen {
		return nil, fmt.Errorf("wire: variable name of %d bytes exceeds limit", len(u.Var))
	}
	dst = append(dst, tagUpdate)
	dst = appendString(dst, string(u.Var))
	dst = binary.BigEndian.AppendUint64(dst, uint64(u.SeqNo))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(u.Value))
	return dst, nil
}

// EncodeUpdate encodes a single update.
func EncodeUpdate(u event.Update) ([]byte, error) {
	return AppendUpdate(nil, u)
}

// DecodeUpdate decodes an update, returning any trailing bytes.
func DecodeUpdate(b []byte) (event.Update, []byte, error) {
	if len(b) == 0 || b[0] != tagUpdate {
		return event.Update{}, nil, errf("not an update message")
	}
	b = b[1:]
	name, b, err := readString(b)
	if err != nil {
		return event.Update{}, nil, err
	}
	if len(b) < 16 {
		return event.Update{}, nil, errf("truncated update body")
	}
	u := event.Update{
		Var:   event.VarName(name),
		SeqNo: int64(binary.BigEndian.Uint64(b)),
		Value: math.Float64frombits(binary.BigEndian.Uint64(b[8:])),
	}
	if u.SeqNo < 0 {
		return event.Update{}, nil, errf("negative sequence number %d", u.SeqNo)
	}
	return u, b[16:], nil
}

// Batch is a batched update frame: a run of in-order updates for a single
// variable sharing one header. It is the wire realization of the runtime's
// EmitBatch — one tag and one variable name amortized over the whole run,
// with each update contributing only its 16-byte (seqno, value) record.
type Batch struct {
	Var event.VarName
	// Updates carry Var and strictly increasing sequence numbers, oldest
	// first — the order a front link delivers them in.
	Updates []event.Update
}

// ItemError reports one undecodable item inside an otherwise well-formed
// multi-item frame ('B' batches, 'M' mux runs). Because batch items are
// fixed-size records and mux items carry length prefixes, a bad item never
// desynchronizes its frame: the decoders skip it and keep decoding.
type ItemError struct {
	// Index is the item's position in the encoded frame.
	Index int
	Err   error
}

// Error implements error.
func (e ItemError) Error() string { return fmt.Sprintf("wire: frame item %d: %v", e.Index, e.Err) }

// AppendBatch appends the encoding of a batch frame for variable v to dst.
// It enforces the frame contract — every update is for v with a
// non-negative, strictly increasing sequence number — so that any frame it
// produces decodes with no item errors.
func AppendBatch(dst []byte, v event.VarName, updates []event.Update) ([]byte, error) {
	if len(v) > maxStringLen {
		return nil, fmt.Errorf("wire: variable name of %d bytes exceeds limit", len(v))
	}
	if len(updates) > maxStringLen {
		return nil, fmt.Errorf("wire: batch of %d updates exceeds limit", len(updates))
	}
	last := int64(-1)
	for i, u := range updates {
		if u.Var != v {
			return nil, fmt.Errorf("wire: batch for %q contains update %d for %q", v, i, u.Var)
		}
		if u.SeqNo < 0 {
			return nil, fmt.Errorf("wire: batch update %d has negative sequence number %d", i, u.SeqNo)
		}
		if u.SeqNo <= last {
			return nil, fmt.Errorf("wire: batch update %d seqno %d does not exceed predecessor %d", i, u.SeqNo, last)
		}
		last = u.SeqNo
	}
	dst = append(dst, tagBatch)
	dst = appendString(dst, string(v))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(updates)))
	for _, u := range updates {
		dst = binary.BigEndian.AppendUint64(dst, uint64(u.SeqNo))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(u.Value))
	}
	return dst, nil
}

// EncodeBatch encodes a batch frame.
func EncodeBatch(v event.VarName, updates []event.Update) ([]byte, error) {
	return AppendBatch(nil, v, updates)
}

// DecodeBatch decodes a batch frame, returning trailing bytes. Frame-level
// corruption (bad tag, truncated header or body) fails the whole frame;
// per-item violations of the batch contract — a negative or non-increasing
// sequence number — are reported in itemErrs while the remaining items
// still decode, so one corrupt record never costs the rest of the frame.
func DecodeBatch(b []byte) (batch Batch, itemErrs []ItemError, rest []byte, err error) {
	if len(b) == 0 || b[0] != tagBatch {
		return Batch{}, nil, nil, errf("not a batch message")
	}
	b = b[1:]
	name, b, err := readString(b)
	if err != nil {
		return Batch{}, nil, nil, err
	}
	if len(b) < 2 {
		return Batch{}, nil, nil, errf("truncated batch count")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < 16*n {
		return Batch{}, nil, nil, errf("truncated batch body (want %d items, have %d bytes)", n, len(b))
	}
	batch = Batch{Var: event.VarName(name)}
	if n > 0 {
		batch.Updates = make([]event.Update, 0, n)
	}
	last := int64(-1)
	for i := 0; i < n; i++ {
		seqNo := int64(binary.BigEndian.Uint64(b))
		value := math.Float64frombits(binary.BigEndian.Uint64(b[8:]))
		b = b[16:]
		switch {
		case seqNo < 0:
			itemErrs = append(itemErrs, ItemError{Index: i, Err: errf("negative sequence number %d", seqNo)})
			continue
		case seqNo <= last:
			itemErrs = append(itemErrs, ItemError{Index: i, Err: errf("sequence number %d does not exceed predecessor %d", seqNo, last)})
			continue
		}
		last = seqNo
		batch.Updates = append(batch.Updates, event.Update{Var: batch.Var, SeqNo: seqNo, Value: value})
	}
	return batch, itemErrs, b, nil
}

// Intern resolves an encoded variable name to its VarName. The receive hot
// path passes an interning function so that decoding a datagram for a
// variable it has seen before allocates nothing: the map lookup
// m[string(name)] compiles without a conversion allocation, and the
// returned VarName shares the map key's backing. The name slice aliases
// the input buffer and is only valid during the call — an implementation
// that retains it must copy.
type Intern func(name []byte) event.VarName

// DecodeBatchInto is DecodeBatch with caller-owned memory: decoded updates
// are appended to scratch[:0] (whose backing array the returned
// Batch.Updates aliases — reuse invalidates earlier results), and the
// variable name is resolved through intern instead of allocating a fresh
// string. A nil intern falls back to allocating; a nil scratch grows one.
// Frame acceptance, item tolerance, and results are otherwise byte-for-byte
// identical to DecodeBatch, which FuzzDecodeBatchInto pins.
func DecodeBatchInto(b []byte, scratch []event.Update, intern Intern) (batch Batch, itemErrs []ItemError, rest []byte, err error) {
	if len(b) == 0 || b[0] != tagBatch {
		return Batch{}, nil, nil, errf("not a batch message")
	}
	b = b[1:]
	name, b, err := readStringBytes(b)
	if err != nil {
		return Batch{}, nil, nil, err
	}
	if len(b) < 2 {
		return Batch{}, nil, nil, errf("truncated batch count")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < 16*n {
		return Batch{}, nil, nil, errf("truncated batch body (want %d items, have %d bytes)", n, len(b))
	}
	if intern != nil {
		batch = Batch{Var: intern(name)}
	} else {
		batch = Batch{Var: event.VarName(name)}
	}
	if n > 0 {
		batch.Updates = scratch[:0]
	}
	last := int64(-1)
	for i := 0; i < n; i++ {
		seqNo := int64(binary.BigEndian.Uint64(b))
		value := math.Float64frombits(binary.BigEndian.Uint64(b[8:]))
		b = b[16:]
		switch {
		case seqNo < 0:
			itemErrs = append(itemErrs, ItemError{Index: i, Err: errf("negative sequence number %d", seqNo)})
			continue
		case seqNo <= last:
			itemErrs = append(itemErrs, ItemError{Index: i, Err: errf("sequence number %d does not exceed predecessor %d", seqNo, last)})
			continue
		}
		last = seqNo
		batch.Updates = append(batch.Updates, event.Update{Var: batch.Var, SeqNo: seqNo, Value: value})
	}
	return batch, itemErrs, b, nil
}

// DecodeUpdateInto is DecodeUpdate with the variable name resolved through
// intern instead of allocating a fresh string — the single-datagram analog
// of DecodeBatchInto. A nil intern falls back to allocating.
func DecodeUpdateInto(b []byte, intern Intern) (event.Update, []byte, error) {
	if intern == nil {
		return DecodeUpdate(b)
	}
	if len(b) == 0 || b[0] != tagUpdate {
		return event.Update{}, nil, errf("not an update message")
	}
	b = b[1:]
	name, b, err := readStringBytes(b)
	if err != nil {
		return event.Update{}, nil, err
	}
	if len(b) < 16 {
		return event.Update{}, nil, errf("truncated update body")
	}
	u := event.Update{
		Var:   intern(name),
		SeqNo: int64(binary.BigEndian.Uint64(b)),
		Value: math.Float64frombits(binary.BigEndian.Uint64(b[8:])),
	}
	if u.SeqNo < 0 {
		return event.Update{}, nil, errf("negative sequence number %d", u.SeqNo)
	}
	return u, b[16:], nil
}

// Mux is a multiplexed back-link frame: one stream's coalesced run of
// alerts, in send order. Streams let many CE replicas share a single TCP
// connection — the frame tags each run with the 32-bit stream id the sender
// chose (a replica index, a shard index), and the receiver demultiplexes by
// it. Each item inside the frame is an independently length-prefixed alert
// encoding, so a corrupt item is skipped by its prefix and never
// desynchronizes the rest of the frame — the same tolerance contract as the
// 'B' batch frames.
type Mux struct {
	Stream uint32
	Alerts []event.Alert
}

// muxHeaderLen is the fixed frame overhead of a mux frame: tag byte,
// 32-bit stream id, 16-bit item count.
const muxHeaderLen = 1 + 4 + 2

// muxItemOverhead is the per-item overhead inside a mux frame: the 32-bit
// length prefix preceding each encoded alert.
const muxItemOverhead = 4

// MuxOverhead reports the encoded size of a mux frame carrying items whose
// alert encodings total bodyBytes across n items. Senders use it to pack
// coalesced runs under a frame-size limit without encoding twice.
func MuxOverhead(n, bodyBytes int) int {
	return muxHeaderLen + n*muxItemOverhead + bodyBytes
}

// AppendMuxHeader appends the fixed header of a mux frame that carries n
// items (n ≤ 65 535, the caller's to ensure). A sender that holds its run
// already encoded — per item a 32-bit length and an alert encoding, the
// layout AppendMux writes — follows the header with those bytes as they are.
func AppendMuxHeader(dst []byte, stream uint32, n int) []byte {
	dst = append(dst, tagMux)
	dst = binary.BigEndian.AppendUint32(dst, stream)
	return binary.BigEndian.AppendUint16(dst, uint16(n))
}

// AppendMux appends the encoding of one stream's coalesced alert run to
// dst. The run order is preserved on the wire; an empty run encodes to a
// valid (if pointless) frame.
func AppendMux(dst []byte, stream uint32, alerts []event.Alert) ([]byte, error) {
	if len(alerts) > maxStringLen {
		return nil, fmt.Errorf("wire: mux run of %d alerts exceeds limit", len(alerts))
	}
	dst = AppendMuxHeader(dst, stream, len(alerts))
	for i, a := range alerts {
		at := len(dst)
		dst = binary.BigEndian.AppendUint32(dst, 0) // patched after encoding
		var err error
		dst, err = AppendAlert(dst, a)
		if err != nil {
			return nil, fmt.Errorf("wire: mux item %d: %w", i, err)
		}
		binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-muxItemOverhead))
	}
	return dst, nil
}

// EncodeMux encodes a mux frame.
func EncodeMux(stream uint32, alerts []event.Alert) ([]byte, error) {
	return AppendMux(nil, stream, alerts)
}

// DecodeMux decodes a mux frame, returning trailing bytes. Frame-level
// corruption (bad tag, truncated header, an item length running past the
// buffer) fails the whole frame; an item whose body does not decode as an
// alert is reported in itemErrs and skipped via its length prefix, so one
// corrupt alert never costs the rest of the run.
func DecodeMux(b []byte) (m Mux, itemErrs []ItemError, rest []byte, err error) {
	return DecodeMuxInto(b, nil, nil)
}

// DecodeMuxInto is DecodeMux with caller-owned memory, the alert-side analog
// of DecodeBatchInto: decoded alerts are appended to scratch[:0] (whose
// backing array the returned Mux.Alerts aliases — reuse invalidates the
// slice, not the alerts copied out of it), and condition, source and variable
// names are resolved through names instead of allocating a fresh string
// each. A nil names allocates; a nil or short scratch grows one. Nothing
// returned aliases b, so a receiver reads its next frame into the same
// buffer. Frame acceptance, item tolerance and results are identical to
// DecodeMux, which is this function with neither.
func DecodeMuxInto(b []byte, scratch []event.Alert, names *Names) (m Mux, itemErrs []ItemError, rest []byte, err error) {
	if len(b) == 0 || b[0] != tagMux {
		return Mux{}, nil, nil, errf("not a mux message")
	}
	b = b[1:]
	if len(b) < 6 {
		return Mux{}, nil, nil, errf("truncated mux header")
	}
	m.Stream = binary.BigEndian.Uint32(b)
	n := int(binary.BigEndian.Uint16(b[4:]))
	b = b[6:]
	// Size for the run at once, but never beyond what the bytes present
	// could hold: a hostile count must not buy an allocation.
	if most := min(n, len(b)/muxItemOverhead); cap(scratch) < most {
		scratch = make([]event.Alert, 0, most)
	}
	m.Alerts = scratch[:0]
	for i := 0; i < n; i++ {
		if len(b) < muxItemOverhead {
			return Mux{}, nil, nil, errf("truncated mux item %d length", i)
		}
		ln := int(binary.BigEndian.Uint32(b))
		b = b[muxItemOverhead:]
		if len(b) < ln {
			return Mux{}, nil, nil, errf("truncated mux item %d body (want %d bytes, have %d)", i, ln, len(b))
		}
		item := b[:ln]
		b = b[ln:]
		a, itemRest, err := DecodeAlertInto(item, names)
		if err != nil {
			itemErrs = append(itemErrs, ItemError{Index: i, Err: err})
			continue
		}
		if len(itemRest) != 0 {
			itemErrs = append(itemErrs, ItemError{Index: i, Err: errf("mux item has %d trailing bytes", len(itemRest))})
			continue
		}
		m.Alerts = append(m.Alerts, a)
	}
	return m, itemErrs, b, nil
}

// Names is a bounded cache of the strings a back link repeats in every alert
// — condition, source and variable names — so that a connection's decoder
// allocates each once instead of once per alert. The zero value is ready; a
// Names belongs to one decoding goroutine (one per connection). It holds at
// most maxNames entries of at most maxNameLen bytes and starts over when
// full, so a peer that invents names costs itself the cache, never the
// receiver its memory.
type Names struct {
	m map[string]string
}

// Bounds of a Names cache: fixed, because the right size is "more names than
// one connection's conditions and variables", not a tuning knob.
const (
	maxNames   = 256
	maxNameLen = 64
)

// intern returns name as a string that does not alias it.
func (n *Names) intern(name []byte) string {
	if n == nil || len(name) > maxNameLen {
		return string(name)
	}
	if s, ok := n.m[string(name)]; ok { // no conversion allocation
		return s
	}
	if n.m == nil || len(n.m) >= maxNames {
		n.m = make(map[string]string, 16)
	}
	s := string(name)
	n.m[s] = s
	return s
}

// AppendAlert appends the encoding of a full alert — condition, source and
// complete histories — to dst.
func AppendAlert(dst []byte, a event.Alert) ([]byte, error) {
	if len(a.Cond) > maxStringLen || len(a.Source) > maxStringLen {
		return nil, fmt.Errorf("wire: alert name fields exceed length limit")
	}
	// Alerts cover a handful of variables: listing them in a stack buffer
	// keeps the encode allocation-free for callers that reuse dst.
	var stack [4]event.VarName
	vars := a.Histories.AppendVars(stack[:0])
	if len(vars) > maxStringLen {
		return nil, fmt.Errorf("wire: %d history variables exceed limit", len(vars))
	}
	dst = append(dst, tagAlert)
	dst = appendString(dst, a.Cond)
	dst = appendString(dst, a.Source)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(vars)))
	for _, v := range vars {
		h := a.Histories[v]
		if len(h.Recent) > maxStringLen {
			return nil, fmt.Errorf("wire: history for %q exceeds window limit", v)
		}
		dst = appendString(dst, string(v))
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(h.Recent)))
		for _, u := range h.Recent {
			dst = binary.BigEndian.AppendUint64(dst, uint64(u.SeqNo))
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(u.Value))
		}
	}
	return dst, nil
}

// EncodeAlert encodes a full alert.
func EncodeAlert(a event.Alert) ([]byte, error) {
	return AppendAlert(nil, a)
}

// DecodeAlert decodes a full alert, returning trailing bytes.
func DecodeAlert(b []byte) (event.Alert, []byte, error) {
	return DecodeAlertInto(b, nil)
}

// DecodeAlertInto is DecodeAlert with the alert's names resolved through
// names (nil allocates each). It is the one alert decoder: the returned
// alert carries its canonical key, built in the pass that fills its history
// set, and shares no memory with b.
func DecodeAlertInto(b []byte, names *Names) (event.Alert, []byte, error) {
	if len(b) == 0 || b[0] != tagAlert {
		return event.Alert{}, nil, errf("not an alert message")
	}
	b = b[1:]
	condName, b, err := readStringBytes(b)
	if err != nil {
		return event.Alert{}, nil, err
	}
	source, b, err := readStringBytes(b)
	if err != nil {
		return event.Alert{}, nil, err
	}
	if len(b) < 2 {
		return event.Alert{}, nil, errf("truncated alert variable count")
	}
	nvars := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	// Encoders list variables in ascending order, which is the form the
	// one-pass constructor takes; hists collects them on the stack. A frame
	// that lists them otherwise is still an alert: from the first name out
	// of order on, set takes over so a repeated variable is caught where it
	// appears.
	var (
		stack [4]event.History
		hists = stack[:0]
		set   event.HistorySet
	)
	for i := 0; i < nvars; i++ {
		name, rest, err := readStringBytes(b)
		if err != nil {
			return event.Alert{}, nil, err
		}
		b = rest
		if len(b) < 2 {
			return event.Alert{}, nil, errf("truncated history length for %q", name)
		}
		n := int(binary.BigEndian.Uint16(b))
		b = b[2:]
		if len(b) < 16*n {
			return event.Alert{}, nil, errf("truncated history body for %q", name)
		}
		h := event.History{Var: event.VarName(names.intern(name)), Recent: make([]event.Update, n)}
		for j := 0; j < n; j++ {
			h.Recent[j] = event.Update{
				Var:   h.Var,
				SeqNo: int64(binary.BigEndian.Uint64(b)),
				Value: math.Float64frombits(binary.BigEndian.Uint64(b[8:])),
			}
			b = b[16:]
		}
		if set == nil && i > 0 && h.Var <= hists[i-1].Var {
			set = make(event.HistorySet, nvars)
			for _, prev := range hists {
				set[prev.Var] = prev
			}
		}
		if set == nil {
			hists = append(hists, h)
			continue
		}
		if _, dup := set[h.Var]; dup {
			return event.Alert{}, nil, errf("duplicate history for variable %q", name)
		}
		set[h.Var] = h
	}
	if set != nil {
		return event.NewAlert(names.intern(condName), set, names.intern(source)), b, nil
	}
	return event.NewAlertOf(names.intern(condName), hists, names.intern(source)), b, nil
}

// Digest is the compact alert representation of Section 2: the fields an
// equality-only filter needs (per-variable latest sequence numbers drive
// AD-2/AD-5; the checksum stands in for full-history equality in
// AD-1-style duplicate removal).
type Digest struct {
	Cond   string
	Source string
	// Latest maps each variable to a.seqno.v.
	Latest map[event.VarName]int64
	// Sum is an FNV-1a checksum over the condition name and the full
	// history sequence numbers.
	Sum uint64
}

// DigestOf summarizes an alert.
func DigestOf(a event.Alert) Digest {
	d := Digest{
		Cond:   a.Cond,
		Source: a.Source,
		Latest: make(map[event.VarName]int64, len(a.Histories)),
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(a.Cond))
	for _, v := range a.Histories.Vars() {
		hist := a.Histories[v]
		d.Latest[v] = hist.Latest().SeqNo
		_, _ = h.Write([]byte{0})
		_, _ = h.Write([]byte(v))
		var buf [8]byte
		for _, u := range hist.Recent {
			binary.BigEndian.PutUint64(buf[:], uint64(u.SeqNo))
			_, _ = h.Write(buf[:])
		}
	}
	d.Sum = h.Sum64()
	return d
}

// Key returns a duplicate-detection key: equal for alerts with equal
// condition and histories (up to checksum collision).
func (d Digest) Key() string {
	return fmt.Sprintf("%s#%016x", d.Cond, d.Sum)
}

// AppendDigest appends the encoding of d to dst.
func AppendDigest(dst []byte, d Digest) ([]byte, error) {
	if len(d.Cond) > maxStringLen || len(d.Source) > maxStringLen || len(d.Latest) > maxStringLen {
		return nil, fmt.Errorf("wire: digest fields exceed length limit")
	}
	dst = append(dst, tagDigest)
	dst = appendString(dst, d.Cond)
	dst = appendString(dst, d.Source)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(d.Latest)))
	vars := make([]event.VarName, 0, len(d.Latest))
	for v := range d.Latest {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	for _, v := range vars {
		dst = appendString(dst, string(v))
		dst = binary.BigEndian.AppendUint64(dst, uint64(d.Latest[v]))
	}
	dst = binary.BigEndian.AppendUint64(dst, d.Sum)
	return dst, nil
}

// DecodeDigest decodes a digest, returning trailing bytes.
func DecodeDigest(b []byte) (Digest, []byte, error) {
	if len(b) == 0 || b[0] != tagDigest {
		return Digest{}, nil, errf("not a digest message")
	}
	b = b[1:]
	condName, b, err := readString(b)
	if err != nil {
		return Digest{}, nil, err
	}
	source, b, err := readString(b)
	if err != nil {
		return Digest{}, nil, err
	}
	if len(b) < 2 {
		return Digest{}, nil, errf("truncated digest variable count")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	d := Digest{Cond: condName, Source: source, Latest: make(map[event.VarName]int64, n)}
	for i := 0; i < n; i++ {
		name, rest, err := readString(b)
		if err != nil {
			return Digest{}, nil, err
		}
		b = rest
		if len(b) < 8 {
			return Digest{}, nil, errf("truncated digest entry for %q", name)
		}
		d.Latest[event.VarName(name)] = int64(binary.BigEndian.Uint64(b))
		b = b[8:]
	}
	if len(b) < 8 {
		return Digest{}, nil, errf("truncated digest checksum")
	}
	d.Sum = binary.BigEndian.Uint64(b)
	return d, b[8:], nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func readString(b []byte) (string, []byte, error) {
	s, rest, err := readStringBytes(b)
	if err != nil {
		return "", nil, err
	}
	return string(s), rest, nil
}

// readStringBytes is readString without the string allocation: the returned
// slice aliases b and is only valid while b is.
func readStringBytes(b []byte) ([]byte, []byte, error) {
	if len(b) < 2 {
		return nil, nil, errf("truncated string length")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return nil, nil, errf("truncated string body (want %d bytes, have %d)", n, len(b))
	}
	return b[:n], b[n:], nil
}
