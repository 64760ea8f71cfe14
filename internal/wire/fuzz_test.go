package wire

import (
	"bytes"
	"testing"
)

// The fuzzers' contract is the server's: any byte string fed to a decoder
// either decodes cleanly or returns a typed error — never a panic, an
// out-of-bounds read, or a hang. Seed corpora live in testdata/fuzz/ and
// are exercised on every plain `go test` run; CI additionally runs each
// target for a short randomized budget.

// FuzzWireDecode drives every frame decoder over arbitrary bytes, reusing
// one decoder per kind across inputs the way the server's pooled scratch
// does — state leakage between hostile frames would surface here.
func FuzzWireDecode(f *testing.F) {
	f.Add(goldenQueryReq().Append(nil))
	f.Add(goldenQueryResp().Append(nil))
	f.Add(goldenReconstructReq().Append(nil))
	f.Add(goldenReconstructResp().Append(nil))
	f.Add(goldenInsertReq().Append(nil))
	f.Add(goldenInsertResp().Append(nil))
	f.Add([]byte{})
	f.Add([]byte{magic0, magic1, Version, KindQueryReq, 0xFF, 0xFF, 0xFF, 0xFF})

	var qreq QueryReq
	var qresp QueryResp
	var rreq ReconstructReq
	var rresp ReconstructResp
	var ireq InsertReq
	var iresp InsertResp
	f.Fuzz(func(t *testing.T, frame []byte) {
		if err := qreq.Decode(frame); err == nil {
			// A frame the decoder accepts must re-encode to the same bytes:
			// decode is a bijection on valid frames.
			if out := qreq.Append(nil); !bytes.Equal(out, frame) {
				t.Fatalf("query req round-trip drift:\n in  %x\n out %x", frame, out)
			}
		}
		if err := qresp.Decode(frame); err == nil {
			if out := qresp.Append(nil); !bytes.Equal(out, frame) {
				t.Fatalf("query resp round-trip drift:\n in  %x\n out %x", frame, out)
			}
		}
		if err := rreq.Decode(frame); err == nil {
			if out := rreq.Append(nil); !bytes.Equal(out, frame) {
				t.Fatalf("reconstruct req round-trip drift:\n in  %x\n out %x", frame, out)
			}
		}
		if err := rresp.Decode(frame); err == nil {
			if out := rresp.Append(nil); !bytes.Equal(out, frame) {
				t.Fatalf("reconstruct resp round-trip drift:\n in  %x\n out %x", frame, out)
			}
		}
		if err := ireq.Decode(frame); err == nil {
			if out := ireq.Append(nil); !bytes.Equal(out, frame) {
				t.Fatalf("insert req round-trip drift:\n in  %x\n out %x", frame, out)
			}
		}
		if err := iresp.Decode(frame); err == nil {
			if out := iresp.Append(nil); !bytes.Equal(out, frame) {
				t.Fatalf("insert resp round-trip drift:\n in  %x\n out %x", frame, out)
			}
		}
		// The routing-layer helpers must tolerate the same inputs.
		if _, err := PeekHead(frame); err == nil {
			if _, err := ReadLedger(frame); err == nil {
				if _, perr := PatchLedger(append([]byte(nil), frame...), []byte("patched"), Ledger{ClientQueries: 1, BudgetRemaining: 2, ExposureWarning: true}); perr != nil {
					t.Fatalf("ReadLedger ok but PatchLedger failed: %v", perr)
				}
			}
		}
	})
}

// FuzzCondDecode focuses the condition-block parser: a valid prefix (id,
// client, flags, count) followed by fuzzed query/cond bytes, hunting for
// arena and span bookkeeping bugs in the hot inner loop.
func FuzzCondDecode(f *testing.F) {
	f.Add(condCorpusPrefix(1), []byte{2, 0, 1, 3, 0, 5, 0})
	f.Add(condCorpusPrefix(2), []byte{0, 0, 0, 0, 0, 0})
	f.Add(condCorpusPrefix(0), []byte{})
	f.Add(condCorpusPrefix(3), []byte{1, 0, 255, 255, 255, 255, 255})

	var m QueryReq
	f.Fuzz(func(t *testing.T, head, tail []byte) {
		if len(head) == 0 {
			return
		}
		frame := append(append([]byte(nil), head...), tail...)
		if len(frame) >= HeaderSize {
			// Keep the declared length honest so the fuzzer spends its
			// budget inside the condition parser, not the header check.
			n := uint32(len(frame) - HeaderSize)
			frame[4], frame[5], frame[6], frame[7] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
		}
		if err := m.Decode(frame); err != nil {
			return
		}
		// Structural invariants of a successful decode: spans partition the
		// arena in order, and every view lands inside it.
		total := 0
		for i := range m.Queries {
			total += len(m.Queries[i].Conds)
		}
		if total != len(m.conds) {
			t.Fatalf("views cover %d conds, arena holds %d", total, len(m.conds))
		}
	})
}

// FuzzFrameRoundTrip drives the encoder from fuzzed message content and
// requires decode(encode(msg)) to reproduce the message exactly — the
// property the golden fixtures pin for four points, extended to the whole
// input space the encoder accepts.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add("census-sps", "analyst", true, uint16(3), uint16(1), uint16(2), uint16(40000), uint16(7))
	f.Add("", "", false, uint16(0), uint16(0), uint16(0), uint16(0), uint16(0))
	f.Add("id", "client-with-a-longer-name", true, uint16(65535), uint16(255), uint16(65535), uint16(1), uint16(9))

	f.Fuzz(func(t *testing.T, id, client string, wait bool, sa, a0, v0, a1, v1 uint16) {
		src := &QueryReq{
			ID:     []byte(id),
			Client: []byte(client),
			Wait:   wait,
			Queries: []Query{
				{SA: sa, Conds: []Cond{{Attr: int(a0), Value: v0}, {Attr: int(a1), Value: v1}}},
				{SA: v1, Conds: []Cond{}},
				{SA: a1, Conds: []Cond{{Attr: int(v0), Value: a0}}},
			},
		}
		frame := src.Append(nil)
		var got QueryReq
		if err := got.Decode(frame); err != nil {
			t.Fatalf("decode of encoded frame failed: %v", err)
		}
		// The encoder truncates oversized ids; mirror that before comparing.
		want := *src
		if len(want.ID) > 255 {
			want.ID = want.ID[:255]
		}
		if len(want.Client) > 255 {
			want.Client = want.Client[:255]
		}
		if !equivalentMessage(&got, &want) {
			t.Fatalf("round trip drift:\n got %#v\nwant %#v", got, want)
		}

		rsrc := &ReconstructResp{
			ID:          []byte(id),
			Client:      []byte(client),
			Ledger:      Ledger{Charged: uint64(sa), ClientQueries: uint64(a0), ExposureWarning: wait},
			ServeMicros: uint64(v0),
			Results: []RecResult{
				{Size: int64(a1), Freqs: []float64{float64(v1) / 7, 0.25}},
				{Err: []byte(client)},
			},
		}
		rframe := rsrc.Append(nil)
		var rgot ReconstructResp
		if err := rgot.Decode(rframe); err != nil {
			t.Fatalf("reconstruct resp decode of encoded frame failed: %v", err)
		}
		rwant := *rsrc
		if len(rwant.ID) > 255 {
			rwant.ID = rwant.ID[:255]
		}
		if len(rwant.Client) > 255 {
			rwant.Client = rwant.Client[:255]
		}
		if !equivalentMessage(&rgot, &rwant) {
			t.Fatalf("reconstruct resp round trip drift:\n got %#v\nwant %#v", rgot, rwant)
		}
	})
}
