package wire

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ocsml/internal/protocol"
)

// corpusDir is the checked-in seed corpus for FuzzWireRoundTrip; go test
// runs every entry through the fuzz target even without -fuzz.
const corpusDir = "testdata/fuzz/FuzzWireRoundTrip"

// corpusDirV2 seeds FuzzDecodeV2, whose entries are frame streams for
// one stateful decoder.
const corpusDirV2 = "testdata/fuzz/FuzzDecodeV2"

// corpusEntries returns the minimized corpus: the canonical encodings of
// every sample envelope plus the interesting malformed shapes the fuzzer
// found worth keeping — truncations, trailing garbage, a tag code past the
// table, an unknown payload discriminator, an oversized control-tag
// length, an unchanged piggyback with no base to repeat, and stream
// frames, which the stateless decoder refuses.
func corpusEntries(t testing.TB) [][]byte {
	var entries [][]byte
	for _, e := range sampleEnvelopes() {
		b, err := Encode(e)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, b)
		if len(b) > 4 {
			entries = append(entries, b[:len(b)-3])    // truncated payload block
			entries = append(entries, append(b, 0xff)) // trailing byte
			entries = append(entries, b[:2])           // header only
		}
	}
	full, delta, same := v2ChainFrames(t)
	entries = append(entries,
		[]byte{},     // empty frame
		[]byte{0},    // header byte only
		[]byte{0, 0}, // header byte and epoch
		[]byte{byte(len(ctlTags)) << tagShift, 0, 0}, // a tag code past the table
		[]byte{0, 0, 0, 9},                           // unknown payload discriminator
		[]byte{0, 0, 0, ptPiggybackSame},             // unchanged piggyback, stateless
		// A literal control tag whose length varint is far beyond MaxCtlTag.
		[]byte{flagCtl | tagLiteral<<tagShift, 0, 0xff, 0xff, 0x7f},
		full,                 // stream frame (stateless decode: ErrDeltaBase)
		delta,                // piggyback delta block, likewise
		delta[:len(delta)-1], // truncated delta block
		same,                 // unchanged piggyback, likewise
		same[:len(same)-1],   // the same frame without its payload block
	)
	return entries
}

// corpusDirRecord seeds FuzzRecordRoundTrip, the checkpoint-record codec.
const corpusDirRecord = "testdata/fuzz/FuzzRecordRoundTrip"

// recordCorpusEntries returns the canonical encoding of every sample
// record plus, for each, a truncation and a trailing byte, an empty
// input, and a log count of 2^31 with nothing behind it.
func recordCorpusEntries() [][]byte {
	entries := [][]byte{{}}
	for _, rec := range sampleRecords() {
		b := AppendRecord(nil, &rec)
		entries = append(entries, b, b[:len(b)-3], append(b[:len(b):len(b)], 0xff))
	}
	noLog := sampleRecords()[0]
	b := AppendRecord(nil, &noLog)
	return append(entries, binary.AppendUvarint(b[:len(b)-1], 1<<31))
}

// corpusEntriesV2 returns the frame streams seeding FuzzDecodeV2: a
// connection's stream frames, stateless frames, and the interesting broken
// streams — a delta or an unchanged piggyback without its base, a base of
// another kind or epoch, corrupted and truncated frames before a good one,
// raw frames mid-stream, and header fields that go backwards.
func corpusEntriesV2(t testing.TB) [][]byte {
	full, delta, same := v2ChainFrames(t)
	samples := sampleEnvelopes()
	var stateless [][]byte
	for _, e := range samples {
		b, err := Encode(e)
		if err != nil {
			t.Fatal(err)
		}
		stateless = append(stateless, b)
	}
	e5 := sampleEnvelopes()[0]
	e5.Epoch = 5
	rng := rand.New(rand.NewSource(5))
	backwards := make([]*protocol.Envelope, 4)
	for i := range backwards {
		backwards[i] = randomEnvelope(rng)
	}
	corrupt := append([]byte(nil), delta...)
	corrupt[len(corrupt)-1] ^= 0xff
	return [][]byte{
		joinStream(streamFrames(t, samples...)...),          // every shape, one connection
		joinStream(stateless...),                            // stateless frames only
		joinStream(full, delta),                             // happy chain
		joinStream(delta),                                   // delta without base
		joinStream(stateless[3], delta),                     // base frame carries no piggyback
		joinStream(streamFrames(t, e5)[0], delta),           // base from another epoch
		joinStream(full, corrupt, delta),                    // corrupted flip bytes, then a good frame
		joinStream(full, delta[:len(delta)-2], delta),       // truncated delta, then the same delta whole
		joinStream(delta, full),                             // delta first, then recover
		joinStream(full, stateless[0], stateless[2], delta), // raw frames mid-stream
		joinStream(streamFrames(t, backwards...)...),        // ID, seqs, link floor going backwards
		joinStream(full, delta, same, same),                 // unchanged piggybacks on their base
		joinStream(same, full),                              // unchanged piggyback without base, then recover
		joinStream(streamFrames(t, e5)[0], same),            // unchanged piggyback on a base of another epoch
	}
}

// joinStream lays frames out the way a connection carries them, each
// behind its uvarint length.
func joinStream(frames ...[]byte) []byte {
	var out []byte
	for _, f := range frames {
		out = binary.AppendUvarint(out, uint64(len(f)))
		out = append(out, f...)
	}
	return out
}

// splitStream is joinStream's inverse over arbitrary input: it returns
// the frames before the first length prefix that is malformed or runs
// past the end.
func splitStream(b []byte) [][]byte {
	var frames [][]byte
	for len(b) > 0 {
		n, k := binary.Uvarint(b)
		if k <= 0 || n > uint64(len(b)-k) {
			break
		}
		frames = append(frames, b[k:k+int(n)])
		b = b[k+int(n):]
	}
	return frames
}

// TestCorpusIsCurrent fails when the checked-in corpus drifts from the
// generator; regenerate with WIRE_REGEN_CORPUS=1 go test ./internal/wire.
func TestCorpusIsCurrent(t *testing.T) {
	if os.Getenv("WIRE_REGEN_CORPUS") != "" {
		writeCorpus(t)
	}
	for dir, want := range corpusWant(t) {
		files, err := filepath.Glob(filepath.Join(dir, "seed-*"))
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		for _, f := range files {
			raw, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			got[string(raw)] = true
		}
		for content := range want {
			if !got[content] {
				t.Fatalf("%s: corpus missing an entry; regenerate with WIRE_REGEN_CORPUS=1 go test ./internal/wire", dir)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: corpus has %d entries, generator produces %d; regenerate with WIRE_REGEN_CORPUS=1", dir, len(got), len(want))
		}
	}
}

// corpusWant maps each corpus directory to its generated file contents.
func corpusWant(t testing.TB) map[string]map[string]bool {
	want := map[string]map[string]bool{
		corpusDir:       {},
		corpusDirV2:     {},
		corpusDirRecord: {},
	}
	for _, b := range corpusEntries(t) {
		want[corpusDir][corpusFile(b)] = true
	}
	for _, b := range recordCorpusEntries() {
		want[corpusDirRecord][corpusFile(b)] = true
	}
	for _, b := range corpusEntriesV2(t) {
		want[corpusDirV2][corpusFile(b)] = true
	}
	return want
}

// corpusFile renders one entry in the go-fuzz corpus file format.
func corpusFile(b []byte) string {
	return "go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n"
}

func writeCorpus(t *testing.T) {
	t.Helper()
	for dir, want := range corpusWant(t) {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		contents := make([]string, 0, len(want))
		for content := range want {
			contents = append(contents, content)
		}
		sort.Strings(contents)
		for i, content := range contents {
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("wrote %d corpus entries to %s", len(contents), dir)
	}
}

// TestCorpusDecodesWithoutPanic runs every checked-in entry through the
// decoder directly (belt and braces on top of the fuzz seed run).
func TestCorpusDecodesWithoutPanic(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(corpusDir, "seed-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus entries checked in")
	}
	for _, f := range files {
		args := parseCorpusFile(t, f)
		if len(args) != 1 {
			t.Fatalf("%s: want 1 fuzz argument, got %d", f, len(args))
		}
		if e, err := Decode(args[0]); err == nil {
			// Whatever decodes must be canonical.
			if _, err := Encode(e); err != nil {
				t.Fatalf("%s: decoded envelope does not re-encode: %v", f, err)
			}
		}
	}
}

// TestCorpusV2DecodesWithoutPanic replays every checked-in frame stream
// through one stateful decoder.
func TestCorpusV2DecodesWithoutPanic(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(corpusDirV2, "seed-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no stream corpus entries checked in")
	}
	for _, f := range files {
		args := parseCorpusFile(t, f)
		if len(args) != 1 {
			t.Fatalf("%s: want 1 fuzz argument, got %d", f, len(args))
		}
		dec := new(Decoder)
		for _, frame := range splitStream(args[0]) {
			if e, err := dec.DecodeOwned(frame); err == nil {
				if _, err := Encode(e); err != nil {
					t.Fatalf("%s: decoded envelope does not re-encode: %v", f, err)
				}
			}
		}
	}
}

// parseCorpusFile decodes a go-fuzz corpus file into its []byte args.
func parseCorpusFile(t *testing.T, path string) [][]byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) < 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a go fuzz corpus file", path)
	}
	var args [][]byte
	for _, line := range lines[1:] {
		payload := strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")")
		s, err := strconv.Unquote(payload)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		args = append(args, []byte(s))
	}
	return args
}
