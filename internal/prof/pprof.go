// pprof.go encodes drained attribution samples as a gzipped
// profile.proto so standard tooling (`go tool pprof` -top, -traces
// and -http, flamegraph viewers) works on simulator output, and
// decodes the same format back so tests can check the encoding. The
// protobuf wiring is hand-rolled against the stable profile.proto
// field numbers — the repo takes no dependency on protobuf runtimes.
package prof

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"

	"nezha/internal/sim"
)

// profile.proto field numbers (github.com/google/pprof/proto/profile.proto).
const (
	pfSampleType    = 1 // repeated ValueType
	pfSample        = 2 // repeated Sample
	pfMapping       = 3 // repeated Mapping
	pfLocation      = 4 // repeated Location
	pfFunction      = 5 // repeated Function
	pfStringTable   = 6 // repeated string
	pfTimeNanos     = 9
	pfDurationNanos = 10
	pfPeriodType    = 11 // ValueType
	pfPeriod        = 12
	pfDefaultSample = 14 // default_sample_type (string index)

	vtType = 1 // ValueType.type (string index)
	vtUnit = 2 // ValueType.unit

	smLocationID = 1 // Sample.location_id, repeated uint64
	smValue      = 2 // Sample.value, repeated int64

	locID        = 1
	locMappingID = 2
	locAddress   = 3
	locLine      = 4 // repeated Line

	lnFunctionID = 1
	lnLine       = 2

	fnID         = 1
	fnName       = 2 // string index
	fnSystemName = 3
	fnFilename   = 4

	mpID           = 1
	mpMemoryStart  = 2
	mpMemoryLimit  = 3
	mpFilename     = 5
	mpHasFunctions = 7
)

// mappingFile names the synthetic binary every location maps into.
const mappingFile = "nezha"

// protobuf wire helpers.

func putUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func putTag(b []byte, field, wire int) []byte {
	return putUvarint(b, uint64(field)<<3|uint64(wire))
}

func putVarintField(b []byte, field int, v uint64) []byte {
	if v == 0 {
		return b
	}
	b = putTag(b, field, 0)
	return putUvarint(b, v)
}

func putBytesField(b []byte, field int, msg []byte) []byte {
	b = putTag(b, field, 2)
	b = putUvarint(b, uint64(len(msg)))
	return append(b, msg...)
}

func putPacked(b []byte, field int, vs []uint64) []byte {
	var body []byte
	for _, v := range vs {
		body = putUvarint(body, v)
	}
	return putBytesField(b, field, body)
}

// zigzag is unused by profile.proto (values are plain int64 varints,
// two's-complement for negatives), so int64s encode via uint64.
func int64field(v int64) uint64 { return uint64(v) }

// stringTable interns frame strings into profile.proto string_table
// indices (index 0 is always "").
type stringTable struct {
	idx  map[string]int64
	strs []string
}

func newStringTable() *stringTable {
	return &stringTable{idx: map[string]int64{"": 0}, strs: []string{""}}
}

func (st *stringTable) id(s string) int64 {
	if i, ok := st.idx[s]; ok {
		return i
	}
	i := int64(len(st.strs))
	st.idx[s] = i
	st.strs = append(st.strs, s)
	return i
}

// frames builds the synthetic stack for one sample, leaf first:
//
//	cycles: stage:<s> → cause:<c> → dir:<d> → vnic:<id>/<role> → node:<n>
//	bytes:  mem:<cause> → vnic:<id>/<role> → node:<n>
//
// so pprof's flame view groups by node, then vNIC, then the charge.
func (s *Sample) frames() []string {
	vnic := fmt.Sprintf("vnic:%d/%s", s.VNIC, s.Role)
	if s.VNIC == OverflowVNIC {
		vnic = "vnic:overflow/" + s.Role.String()
	}
	node := "node:" + s.Node
	if s.Bytes > 0 && s.Cycles == 0 {
		return []string{"mem:" + s.Cause.String(), vnic, node}
	}
	fr := make([]string, 0, 5)
	fr = append(fr, "stage:"+s.Stage.String())
	if s.Cause != CauseNone {
		fr = append(fr, "cause:"+s.Cause.String())
	}
	if s.Dir != DirNone {
		fr = append(fr, "dir:"+s.Dir.String())
	}
	return append(fr, vnic, node)
}

// WriteProfile drains the profiler and writes a gzipped profile.proto
// with two sample types (cycles, bytes) to w; cycles is the default,
// so pprof shows it unless -sample_index says otherwise. now/dur stamp
// the profile's time_nanos/duration_nanos from sim time.
func (p *Profiler) WriteProfile(w io.Writer, now, dur sim.Time) error {
	raw := encodeProfile(p.Samples(), now, dur)
	gz := gzip.NewWriter(w)
	if _, err := gz.Write(raw); err != nil {
		return err
	}
	return gz.Close()
}

// ProfileBytes is WriteProfile into a byte slice.
func (p *Profiler) ProfileBytes(now, dur sim.Time) ([]byte, error) {
	var buf bytes.Buffer
	if err := p.WriteProfile(&buf, now, dur); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encodeProfile builds the uncompressed profile.proto message.
func encodeProfile(samples []Sample, now, dur sim.Time) []byte {
	st := newStringTable()
	cyclesStr := st.id("cycles")
	bytesStr := st.id("bytes")

	// Function and location tables: one function + one location per
	// distinct frame string. Location IDs are 1-based; addresses are
	// synthetic but unique so tools that key on address stay happy.
	funcOf := map[string]uint64{}
	var funcNames []string
	locFor := func(frame string) uint64 {
		if id, ok := funcOf[frame]; ok {
			return id
		}
		id := uint64(len(funcNames) + 1)
		funcOf[frame] = id
		funcNames = append(funcNames, frame)
		return id
	}

	var sampleMsgs [][]byte
	for i := range samples {
		s := &samples[i]
		var locs []uint64
		for _, fr := range s.frames() {
			locs = append(locs, locFor(fr))
		}
		var msg []byte
		msg = putPacked(msg, smLocationID, locs)
		msg = putPacked(msg, smValue, []uint64{
			int64field(int64(s.Cycles)), int64field(int64(s.Bytes)),
		})
		sampleMsgs = append(sampleMsgs, msg)
	}

	var out []byte
	// sample_type: cycles/cycles, bytes/bytes.
	for _, typ := range []int64{cyclesStr, bytesStr} {
		var vt []byte
		vt = putVarintField(vt, vtType, uint64(typ))
		vt = putVarintField(vt, vtUnit, uint64(typ))
		out = putBytesField(out, pfSampleType, vt)
	}
	for _, msg := range sampleMsgs {
		out = putBytesField(out, pfSample, msg)
	}
	// One synthetic mapping covering all locations. It already carries
	// its functions, so pprof attempts no symbolization.
	{
		var mp []byte
		mp = putVarintField(mp, mpID, 1)
		mp = putVarintField(mp, mpMemoryStart, 0x1000)
		mp = putVarintField(mp, mpMemoryLimit, 0x1000+uint64(len(funcNames)+2))
		mp = putVarintField(mp, mpFilename, uint64(st.id(mappingFile)))
		mp = putVarintField(mp, mpHasFunctions, 1)
		out = putBytesField(out, pfMapping, mp)
	}
	for i, name := range funcNames {
		id := uint64(i + 1)
		var fn []byte
		fn = putVarintField(fn, fnID, id)
		fn = putVarintField(fn, fnName, uint64(st.id(name)))
		fn = putVarintField(fn, fnSystemName, uint64(st.id(name)))
		fn = putVarintField(fn, fnFilename, uint64(st.id(mappingFile)))
		out = putBytesField(out, pfFunction, fn)

		var ln []byte
		ln = putVarintField(ln, lnFunctionID, id)
		ln = putVarintField(ln, lnLine, 1)
		var loc []byte
		loc = putVarintField(loc, locID, id)
		loc = putVarintField(loc, locMappingID, 1)
		loc = putVarintField(loc, locAddress, 0x1000+id)
		loc = putBytesField(loc, locLine, ln)
		out = putBytesField(out, pfLocation, loc)
	}
	for _, s := range st.strs {
		out = putBytesField(out, pfStringTable, []byte(s))
	}
	out = putVarintField(out, pfTimeNanos, uint64(now))
	out = putVarintField(out, pfDurationNanos, uint64(dur))
	// period_type cycles/cycles, period 1.
	{
		var vt []byte
		vt = putVarintField(vt, vtType, uint64(cyclesStr))
		vt = putVarintField(vt, vtUnit, uint64(cyclesStr))
		out = putBytesField(out, pfPeriodType, vt)
	}
	out = putVarintField(out, pfPeriod, 1)
	out = putVarintField(out, pfDefaultSample, uint64(cyclesStr))
	return out
}

// DecodedSample is one decoded profile sample: its synthetic stack
// (leaf first) and its values in sample-type order.
type DecodedSample struct {
	Stack  []string
	Values []int64
}

// DecodedProfile is the subset of profile.proto the simulator emits,
// decoded back for tests.
type DecodedProfile struct {
	SampleTypes []string // "type/unit"
	// DefaultSampleType is the sample type pprof shows by default.
	DefaultSampleType string
	Samples           []DecodedSample
	TimeNanos         int64
	DurationNanos     int64
}

type pbReader struct {
	b   []byte
	pos int
}

func (r *pbReader) done() bool { return r.pos >= len(r.b) }

func (r *pbReader) uvarint() (uint64, error) {
	var v uint64
	var shift uint
	for {
		if r.pos >= len(r.b) {
			return 0, fmt.Errorf("prof: truncated varint")
		}
		c := r.b[r.pos]
		r.pos++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
		shift += 7
		if shift >= 64 {
			return 0, fmt.Errorf("prof: varint overflow")
		}
	}
}

func (r *pbReader) field() (num int, wire int, err error) {
	tag, err := r.uvarint()
	if err != nil {
		return 0, 0, err
	}
	return int(tag >> 3), int(tag & 7), nil
}

func (r *pbReader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if uint64(r.pos)+n > uint64(len(r.b)) {
		return nil, fmt.Errorf("prof: truncated bytes field")
	}
	out := r.b[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return out, nil
}

func (r *pbReader) skip(wire int) error {
	switch wire {
	case 0:
		_, err := r.uvarint()
		return err
	case 1:
		r.pos += 8
	case 2:
		_, err := r.bytes()
		return err
	case 5:
		r.pos += 4
	default:
		return fmt.Errorf("prof: unsupported wire type %d", wire)
	}
	if r.pos > len(r.b) {
		return fmt.Errorf("prof: truncated fixed field")
	}
	return nil
}

// repeatedUint64 reads a repeated uint64 field body that may be
// packed (wire 2) or a single varint (wire 0).
func repeatedUint64(r *pbReader, wire int, into []uint64) ([]uint64, error) {
	if wire == 0 {
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		return append(into, v), nil
	}
	body, err := r.bytes()
	if err != nil {
		return nil, err
	}
	pr := &pbReader{b: body}
	for !pr.done() {
		v, err := pr.uvarint()
		if err != nil {
			return nil, err
		}
		into = append(into, v)
	}
	return into, nil
}

// DecodeProfile parses a (possibly gzipped) profile.proto emitted by
// WriteProfile back into stacks and values.
func DecodeProfile(data []byte) (*DecodedProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		gz, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(gz)
		if err != nil {
			return nil, err
		}
		if err := gz.Close(); err != nil {
			return nil, err
		}
		data = raw
	}

	type rawSample struct {
		locs []uint64
		vals []int64
	}
	type rawVT struct{ typ, unit int64 }
	var (
		strs     []string
		vts      []rawVT
		defType  int64
		rawSamps []rawSample
		locFunc  = map[uint64]uint64{} // location id -> function id
		funcName = map[uint64]int64{}  // function id -> name string index
		dp       DecodedProfile
	)

	r := &pbReader{b: data}
	for !r.done() {
		num, wire, err := r.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case pfSampleType, pfPeriodType:
			body, err := r.bytes()
			if err != nil {
				return nil, err
			}
			if num == pfPeriodType {
				continue
			}
			var vt rawVT
			vr := &pbReader{b: body}
			for !vr.done() {
				n, w, err := vr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case vtType:
					v, err := vr.uvarint()
					if err != nil {
						return nil, err
					}
					vt.typ = int64(v)
				case vtUnit:
					v, err := vr.uvarint()
					if err != nil {
						return nil, err
					}
					vt.unit = int64(v)
				default:
					if err := vr.skip(w); err != nil {
						return nil, err
					}
				}
			}
			vts = append(vts, vt)
		case pfSample:
			body, err := r.bytes()
			if err != nil {
				return nil, err
			}
			var rs rawSample
			sr := &pbReader{b: body}
			for !sr.done() {
				n, w, err := sr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case smLocationID:
					rs.locs, err = repeatedUint64(sr, w, rs.locs)
				case smValue:
					var vs []uint64
					vs, err = repeatedUint64(sr, w, nil)
					for _, v := range vs {
						rs.vals = append(rs.vals, int64(v))
					}
				default:
					err = sr.skip(w)
				}
				if err != nil {
					return nil, err
				}
			}
			rawSamps = append(rawSamps, rs)
		case pfLocation:
			body, err := r.bytes()
			if err != nil {
				return nil, err
			}
			var id, fid uint64
			lr := &pbReader{b: body}
			for !lr.done() {
				n, w, err := lr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case locID:
					id, err = lr.uvarint()
				case locLine:
					var line []byte
					line, err = lr.bytes()
					if err == nil {
						nr := &pbReader{b: line}
						for !nr.done() {
							ln, lw, lerr := nr.field()
							if lerr != nil {
								return nil, lerr
							}
							if ln == lnFunctionID {
								fid, lerr = nr.uvarint()
								if lerr != nil {
									return nil, lerr
								}
							} else if lerr := nr.skip(lw); lerr != nil {
								return nil, lerr
							}
						}
					}
				default:
					err = lr.skip(w)
				}
				if err != nil {
					return nil, err
				}
			}
			locFunc[id] = fid
		case pfFunction:
			body, err := r.bytes()
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			fr := &pbReader{b: body}
			for !fr.done() {
				n, w, err := fr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case fnID:
					id, err = fr.uvarint()
				case fnName:
					var v uint64
					v, err = fr.uvarint()
					name = int64(v)
				default:
					err = fr.skip(w)
				}
				if err != nil {
					return nil, err
				}
			}
			funcName[id] = name
		case pfStringTable:
			b, err := r.bytes()
			if err != nil {
				return nil, err
			}
			strs = append(strs, string(b))
		case pfTimeNanos:
			v, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			dp.TimeNanos = int64(v)
		case pfDurationNanos:
			v, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			dp.DurationNanos = int64(v)
		case pfDefaultSample:
			v, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			defType = int64(v)
		default:
			if err := r.skip(wire); err != nil {
				return nil, err
			}
		}
	}

	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return fmt.Sprintf("str#%d", i)
		}
		return strs[i]
	}
	for _, vt := range vts {
		dp.SampleTypes = append(dp.SampleTypes, str(vt.typ)+"/"+str(vt.unit))
	}
	if defType != 0 {
		dp.DefaultSampleType = str(defType)
	}
	for _, rs := range rawSamps {
		ds := DecodedSample{Values: rs.vals}
		for _, loc := range rs.locs {
			ds.Stack = append(ds.Stack, str(funcName[locFunc[loc]]))
		}
		dp.Samples = append(dp.Samples, ds)
	}
	return &dp, nil
}
