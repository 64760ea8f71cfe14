package wire

import (
	"bytes"
	"errors"
	"testing"
)

// goldenInsertReq and goldenInsertResp feed the byte-exact fixtures in
// testdata/ (insert_req.bin, insert_resp.bin) through the shared
// TestGoldenFrames table, same contract as the query fixtures: drift fails
// the test unless it is deliberate (-update plus a Version bump).
func goldenInsertReq() *InsertReq {
	return &InsertReq{
		ID:     []byte("census-sps"),
		Client: []byte("ingestd"),
		Wait:   true,
		NAttrs: 4,
		Records: [][]uint16{
			{0, 2, 17, 3},
			{1, 0, 999, 0},
			{65535, 255, 0, 12},
		},
	}
}

func goldenInsertResp() *InsertResp {
	return &InsertResp{
		ID:           []byte("census-sps"),
		Client:       []byte("ingestd"),
		Inserted:     3,
		Trials:       2,
		Absorbed:     1,
		TotalRecords: 45225,
	}
}

func TestInsertDecodeErrors(t *testing.T) {
	valid := goldenInsertReq().Append(nil)
	corrupt := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		mut(b)
		return b
	}
	// Payload layout: id(1+10) client(1+7) flags(1) nAttrs(1) n(4) records.
	flagsOff := HeaderSize + 11 + 8
	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"empty", nil, ErrTruncated},
		{"wrong kind", corrupt(func(b []byte) { b[3] = KindQueryReq }), ErrKind},
		{"unknown flag", corrupt(func(b []byte) { b[flagsOff] |= 0x80 }), ErrFlags},
		{"truncated records", valid[:len(valid)-2], ErrTruncated},
		{"trailing bytes", append(append([]byte(nil), valid...), 0xEE), ErrTrailing},
		{"count overdeclared", corrupt(func(b []byte) {
			off := flagsOff + 2
			b[off], b[off+1], b[off+2], b[off+3] = 0xFF, 0xFF, 0xFF, 0xFF
		}), ErrCount},
		{"zero-width records", corrupt(func(b []byte) { b[flagsOff+1] = 0 }), ErrCount},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var m InsertReq
			if err := m.Decode(tc.frame); !errors.Is(err, tc.want) {
				t.Fatalf("Decode = %v, want %v", err, tc.want)
			}
		})
	}

	t.Run("zero records zero width ok", func(t *testing.T) {
		// nAttrs = 0 with n = 0 is a legal (if useless) frame — only a
		// nonzero count at zero width is rejected.
		src := &InsertReq{ID: []byte("p"), Client: []byte("c")}
		var m InsertReq
		if err := m.Decode(src.Append(nil)); err != nil {
			t.Fatal(err)
		}
		if len(m.Records) != 0 || m.NAttrs != 0 {
			t.Fatalf("decoded %#v", m)
		}
	})
}

func TestInsertRoundTripReusesState(t *testing.T) {
	var m InsertReq
	first := goldenInsertReq()
	second := &InsertReq{ID: []byte("x"), NAttrs: 2, Records: [][]uint16{{7, 8}}}
	for _, src := range []*InsertReq{first, second, first} {
		frame := src.Append(nil)
		if err := m.Decode(frame); err != nil {
			t.Fatal(err)
		}
		if !equivalentMessage(&m, src) {
			t.Fatalf("reused decode diverged:\n got %#v\nwant %#v", m, src)
		}
		if out := m.Append(nil); !bytes.Equal(out, frame) {
			t.Fatalf("re-encode drift:\n got %x\nwant %x", out, frame)
		}
	}
}

// TestInsertDecodeAllocs extends the zero-allocation pin to the firehose
// path: a warmed InsertReq decoder parses a steady-state batch without
// allocating, so a binary /insert under sustained ingest (perfbench's
// fleet-ingest workload) decodes at wire speed.
func TestInsertDecodeAllocs(t *testing.T) {
	frame := goldenInsertReq().Append(nil)
	respFrame := goldenInsertResp().Append(nil)
	var req InsertReq
	var resp InsertResp
	if err := req.Decode(frame); err != nil {
		t.Fatal(err)
	}
	if err := resp.Decode(respFrame); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { _ = req.Decode(frame) }); n != 0 {
		t.Fatalf("decode InsertReq: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { _ = resp.Decode(respFrame) }); n != 0 {
		t.Fatalf("decode InsertResp: %v allocs/op, want 0", n)
	}
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(200, func() { buf = goldenFixedInsertReq.Append(buf[:0]) }); n != 0 {
		t.Fatalf("encode InsertReq: %v allocs/op, want 0", n)
	}
}

var goldenFixedInsertReq = goldenInsertReq()

// TestInsertRaggedRecords pins the encoder's self-consistency rule: records
// shorter than NAttrs are zero-padded and longer ones truncated, so the
// frame always decodes at the declared width.
func TestInsertRaggedRecords(t *testing.T) {
	src := &InsertReq{
		ID:     []byte("p"),
		NAttrs: 3,
		Records: [][]uint16{
			{1},          // short: padded to {1, 0, 0}
			{1, 2, 3, 4}, // long: truncated to {1, 2, 3}
		},
	}
	var m InsertReq
	if err := m.Decode(src.Append(nil)); err != nil {
		t.Fatal(err)
	}
	want := [][]uint16{{1, 0, 0}, {1, 2, 3}}
	for i := range want {
		for j := range want[i] {
			if m.Records[i][j] != want[i][j] {
				t.Fatalf("record %d = %v, want %v", i, m.Records[i], want[i])
			}
		}
	}
}
