package compress

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"godm/internal/wire/wiretest"
)

// textPage is a page of prose-like bytes: short repeats at short distances,
// the opposite of GeneratePage's random prefix and zero tail.
func textPage() []byte {
	var b bytes.Buffer
	for i := 0; b.Len() < PageSize; i++ {
		fmt.Fprintf(&b, "func (n *Node) handle%d(ctx context.Context, req []byte) ([]byte, error) {\n\treturn n.reply(ctx, req[%d:])\n}\n\n", i*7, i%9)
	}
	return b.Bytes()[:PageSize]
}

// seedPages are the inputs the codec tests share: the synthetic pages at
// ratios 1, 2 and 8, a text page and a zero page.
func seedPages() []struct {
	name string
	page []byte
} {
	rng := rand.New(rand.NewSource(1))
	return []struct {
		name string
		page []byte
	}{
		{"ratio1", GeneratePage(rng, 1)},
		{"ratio2", GeneratePage(rng, 2)},
		{"ratio8", GeneratePage(rng, 8)},
		{"text", textPage()},
		{"zero", make([]byte, PageSize)},
	}
}

// decodeGuarded decodes payload into an n-byte window of a larger buffer
// whose every other byte is fill, and fails the test if the decoder wrote
// outside the window.
func decodeGuarded(tb testing.TB, payload []byte, n int, fill byte) ([]byte, error) {
	tb.Helper()
	const guard = 64
	buf := bytes.Repeat([]byte{fill}, n+2*guard)
	err := DecompressEntryInto(buf[guard:guard+n], payload)
	for i, v := range buf {
		if (i < guard || i >= guard+n) && v != fill {
			tb.Fatalf("decoding into %d bytes wrote at %d, outside dst", n, i-guard)
		}
	}
	return buf[guard : guard+n], err
}

// checkDecode runs the decoder's contract on one (payload, n) pair: no panic,
// nothing written outside dst, and an ErrCorrupt-wrapped error or every byte
// of dst written (two decodes over different fills agree). It returns the
// decoded bytes when decoding succeeded.
func checkDecode(tb testing.TB, payload []byte, n int) ([]byte, error) {
	tb.Helper()
	a, err := decodeGuarded(tb, payload, n, 0x00)
	b, err2 := decodeGuarded(tb, payload, n, 0xFF)
	if (err == nil) != (err2 == nil) {
		tb.Fatalf("decode depends on dst's contents: %v vs %v", err, err2)
	}
	if err != nil && !errors.Is(err, ErrCorrupt) {
		tb.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if err == nil && !bytes.Equal(a, b) {
		tb.Fatal("decode returned nil without writing all of dst")
	}
	return a, err
}

// checkDecodeAllocatesNothing: neither outcome of a decode touches the heap.
func checkDecodeAllocatesNothing(tb testing.TB, payload []byte, n int) {
	tb.Helper()
	dst := make([]byte, n)
	if got := wiretest.AllocBytes(func() { _ = DecompressEntryInto(dst, payload) }); got != 0 {
		tb.Fatalf("decoding %d bytes into %d allocated %d bytes", len(payload), n, got)
	}
}

// checkEncode runs the encoder's contract on x: success means a strictly
// shorter block that decodes back to x, appended without disturbing what dst
// already held; failure leaves dst's length alone.
func checkEncode(tb testing.TB, c *Codec, x []byte) {
	tb.Helper()
	prefix := []byte("prefix")
	out, ok := c.AppendEntry(prefix, x)
	if !bytes.HasPrefix(out, prefix) {
		tb.Fatal("AppendEntry disturbed dst's contents")
	}
	block := out[len(prefix):]
	if !ok {
		if len(block) != 0 {
			tb.Fatalf("AppendEntry refused but grew dst by %d", len(block))
		}
		return
	}
	if len(block) >= len(x) {
		tb.Fatalf("encode reported success with %d bytes for a %d-byte input", len(block), len(x))
	}
	back, err := checkDecode(tb, block, len(x))
	if err != nil {
		tb.Fatalf("decode(encode(x)): %v", err)
	}
	if !bytes.Equal(back, x) {
		tb.Fatal("decode(encode(x)) != x")
	}
	checkDecodeAllocatesNothing(tb, block, len(x))
}

// FuzzEntryCodec holds the entry codec to its contract from both ends. The
// input is fed to the decoder as a would-be block, with a destination of
// arbitrary length — never a panic, never a write outside dst, nil only with
// dst fully written, no allocation — and to the encoder as an entry:
// decode(encode(x)) == x whenever the encoder accepts x, and it never accepts
// with an output as long as x.
func FuzzEntryCodec(f *testing.F) {
	c, _ := NewCodec(Four)
	for _, seed := range seedPages() {
		f.Add(seed.page, uint16(PageSize))
		if block, ok := c.CompressEntry(seed.page); ok {
			f.Add(block, uint16(PageSize))
		}
	}
	f.Fuzz(func(t *testing.T, in []byte, n uint16) {
		checkDecode(t, in, int(n))
		checkDecodeAllocatesNothing(t, in, int(n))
		checkEncode(t, c, in)
	})
}

// TestDamagedBlocks cuts a valid block short at every byte and flips every
// byte of it three ways. A truncated block never decodes; a flipped one
// either fails or fills dst completely — the format has no checksum, so a
// flipped literal decodes to a wrong byte, but never to a short page.
func TestDamagedBlocks(t *testing.T) {
	c, _ := NewCodec(Four)
	for _, seed := range seedPages() {
		block, ok := c.CompressEntry(seed.page)
		if !ok {
			t.Fatalf("%s did not compress", seed.name) // even ratio 1 ends in a short zero run
		}
		for cut := 0; cut < len(block); cut++ {
			if _, err := checkDecode(t, block[:cut], PageSize); err == nil {
				t.Fatalf("%s: block cut at %d of %d decoded", seed.name, cut, len(block))
			}
		}
		silent := 0
		damaged := bytes.Clone(block)
		for i := range block {
			for _, mask := range []byte{0x01, 0x80, 0xFF} {
				damaged[i] = block[i] ^ mask
				if _, err := checkDecode(t, damaged, PageSize); err == nil {
					silent++
				}
			}
			damaged[i] = block[i]
		}
		t.Logf("%s: %d-byte block, %d of %d flips decode to a full (wrong) page", seed.name, len(block), silent, 3*len(block))
	}
}

// TestEncoderContractOnSeedPages runs the fuzz target's encoder half on the
// inputs it is seeded with, and on every prefix length around the format's
// end-of-block rules.
func TestEncoderContractOnSeedPages(t *testing.T) {
	c, _ := NewCodec(Four)
	for _, seed := range seedPages() {
		checkEncode(t, c, seed.page)
	}
	run := bytes.Repeat([]byte("ab"), 40)
	for n := 0; n <= len(run); n++ {
		checkEncode(t, c, run[:n])
	}
}

// TestGeneratePagePinned: the synthetic pages are the benchmark's and
// Figure 3's input. A codec change must not move them, or parent and change
// would be compared on different bytes.
func TestGeneratePagePinned(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := sha256.New()
	for _, ratio := range []float64{1, 2, 4, 8} {
		h.Write(GeneratePage(rng, ratio))
	}
	const want = "7e56b79982a6417be8ff3392f4531a6793c0cc483e4df0e510b87852a0b17316"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("GeneratePage(seed 1; ratios 1, 2, 4, 8) hashes to %s, want %s", got, want)
	}
}

// TestCodecOnRealPages measures the codec where GeneratePage cannot: on
// 4 KiB pages of Go source text and of an ELF binary from the toolchain that
// runs the test, beside the codec this package used before, stdlib deflate at
// BestSpeed, which stays here as the yardstick for what the LZ block codec
// gives up in ratio and gains in time. It logs raw and binned ratios and
// per-page times (DESIGN.md §13 records a run) and asserts only what must
// hold anywhere: every page round-trips and the block codec is the faster one
// in both directions.
func TestCodecOnRealPages(t *testing.T) {
	if testing.Short() {
		t.Skip("reads and compresses ~12 MiB")
	}
	root := runtime.GOROOT()
	var text []byte
	// WalkDir visits in lexical order, so the pages are the same every run.
	_ = filepath.WalkDir(filepath.Join(root, "src", "net"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".go" {
			b, _ := os.ReadFile(path)
			text = append(text, b...)
		}
		return nil
	})
	if len(text) < PageSize {
		t.Skip("no $GOROOT/src to read pages from")
	}
	elf, _ := os.ReadFile(filepath.Join(root, "bin", "go"))
	elf = elf[:min(len(elf), 2048*PageSize)]

	c, _ := NewCodec(Four)
	stage := make([]byte, 0, PageSize)
	fw, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
	fr := flate.NewReader(bytes.NewReader(nil))
	var fbuf bytes.Buffer
	codecs := []struct {
		name   string
		encode func(page []byte) []byte // a result as long as the page means "store raw"
		decode func(dst, block []byte) error
	}{
		{"lz block", func(page []byte) []byte {
			if block, ok := c.AppendEntry(stage, page); ok {
				return block
			}
			return page
		}, DecompressEntryInto},
		{"deflate-1", func(page []byte) []byte {
			fbuf.Reset()
			fw.Reset(&fbuf)
			_, _ = fw.Write(page)
			_ = fw.Close()
			return fbuf.Bytes()
		}, func(dst, block []byte) error {
			_ = fr.(flate.Resetter).Reset(bytes.NewReader(block), nil)
			_, err := io.ReadFull(fr, dst)
			return err
		}},
	}
	back := make([]byte, PageSize)
	for _, in := range []struct {
		name string
		data []byte
	}{{"go source text", text}, {"ELF binary", elf}} {
		pages := len(in.data) / PageSize
		raw := int64(pages) * PageSize
		var encTime, decTime [2]time.Duration
		for k, codec := range codecs {
			var payload, four, two int64
			for p := 0; p < pages; p++ {
				page := in.data[p*PageSize : (p+1)*PageSize]
				start := time.Now()
				block := codec.encode(page)
				encTime[k] += time.Since(start)
				if len(block) >= PageSize {
					block = page
				} else {
					start = time.Now()
					err := codec.decode(back, block)
					decTime[k] += time.Since(start)
					if err != nil || !bytes.Equal(back, page) {
						t.Fatalf("%s page %d: %s round trip failed: %v", in.name, p, codec.name, err)
					}
				}
				payload += int64(len(block))
				four += int64(Four.ClassFor(len(block)))
				two += int64(Two.ClassFor(len(block)))
			}
			t.Logf("%-14s %4d pages  %-9s raw %.2f  4-gran %.2f  2-gran %.2f  compress %5.2f us/page  decompress %5.2f us/page",
				in.name, pages, codec.name, Ratio(raw, payload), Ratio(raw, four), Ratio(raw, two),
				float64(encTime[k].Microseconds())/float64(pages), float64(decTime[k].Microseconds())/float64(pages))
		}
		if pages > 0 && (encTime[0] >= encTime[1] || decTime[0] >= decTime[1]) {
			t.Errorf("%s: lz block took %v + %v, deflate %v + %v: the block codec must be the cheaper one",
				in.name, encTime[0], decTime[0], encTime[1], decTime[1])
		}
	}
}
