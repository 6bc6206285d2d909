// The on-disk tier of the representation cache: content-addressed entries
// that persist everything a warm load would otherwise recompute — the
// variant graph (via the bog binary codec), the arrival fingerprint, the
// analyzer's static load/slew/delay/fanout vectors, the period-free
// arrival vector, and the extractor's per-endpoint cone/rank state. A warm
// EvalRep is therefore pure deserialization: no parsing, no bit-blasting,
// no forward max-plus pass, no cone walks, no re-hashing.
//
// Entry format (all integers little-endian):
//
//	magic    [4]byte "RTLR"
//	version  uint32 (entryVersion)
//	graphLen uint32, graph blob (bog codec; yields node count n, endpoint count E)
//	digest   [32]byte — the raw SHA-256 behind ArrivalDigest(arrival)
//	arrival  [n]float64
//	load     [n]float64
//	slew     [n]float64
//	delay    [n]float64
//	fanout   [n]int32
//	cones    [E]{nodes, drivingRegs, inputs int32}
//	rankpct  [E]float64
//	checksum uint32 — CRC-32C (Castagnoli) of every preceding byte
//
// The checksum detects torn writes and bit rot: every single-bit flip,
// every burst of up to 32 bits and any truncation (which also fails the
// shape check). It authenticates nothing — whoever can write the cache
// directory can recompute it, as they could the SHA-256 it replaced — so
// a load trusts the persisted fingerprint exactly as it trusts the
// persisted vectors, and the offline scrub (scrub.go) recomputes it.
//
// All I/O below this layer goes through the Store interface (store.go):
// SetCacheDir composes RetryStore over DirStore, so writes are atomic
// temp+rename (readers never observe a partial entry) and transient I/O
// errors are retried on a fixed schedule. Entries are advisory: any read
// that fails validation (bad checksum, truncation, size mismatch, codec
// error) is moved to quarantine/ by quarantine, the one helper the
// offline scrub (scrub.go) moves entries with too — counted in
// Stats.Quarantined, so corruption is visible instead of being re-read
// forever — and the caller falls through to a rebuild. Real I/O errors
// (anything but not-exist) count in Stats.DiskErrors and leave the entry
// where it is. The entry name is the SHA-256 of (a frozen
// format salt, design tag — which itself embeds the SHA-256 of the source
// — BOG variant, library fingerprint), so a change to any input simply
// misses instead of deserializing stale state. A format bump keeps the
// names: an intact entry of another entry version is a plain miss, and
// the rebuild's write replaces it under the same name.
//
// Only base builds are persisted. Delta-derived entries (RepResult.Edit)
// stay in the memory tier: their keys record the base tag plus the delta
// digest, and a warm session rebases — it restores the base entry from
// disk and replays the delta through the incremental STA session, paying
// the affected cone instead of a second full entry.
package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"strings"

	"rtltimer/internal/bog"
	"rtltimer/internal/features"
	"rtltimer/internal/liberty"
	"rtltimer/internal/sta"
)

// entryVersion is the disk-entry wire-format version. Bump it whenever
// the entry layout (not the embedded graph codec — that has its own
// version) changes, or when a build can produce different bytes for the
// same key: entry names hash the source, variant and library, not the
// code that built the entry, so only the bump keeps a stale entry from
// being served. A graph codec change (bog.CodecVersion) must bump it too,
// so older entries read as plain misses rather than as corrupt. Version 2
// retired entries from a bit-blaster that read a constant shift amount of
// 2^63 or more as a negative int, so that 2^64-1 shifted by one the other
// way. Version 3 replaced the trailing SHA-256 with a CRC-32C and
// persisted the arrival fingerprint.
const entryVersion = 3

// entryNameSalt is the format salt entry names hash: entryVersion and
// bog.CodecVersion as they were when names were frozen. Keeping it fixed
// across format bumps means a newer binary finds an older entry at the
// key's name and overwrites it with its rebuild, instead of stranding it
// under a name nothing reads again.
const entryNameSalt = "\x03\x01"

var entryMagic = [4]byte{'R', 'T', 'L', 'R'}

// checksumSize is the width of the trailing CRC-32C; digestSize that of
// the persisted arrival fingerprint.
const (
	checksumSize = crc32.Size
	digestSize   = sha256.Size
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sealEntry appends the entry checksum of body to it.
func sealEntry(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
}

// Entry, temp and specimen names. Every entry name ends in entrySuffix;
// every temp file DirStore.Put writes before renaming it into place
// starts with tempPrefix, which no entry name does, so reads never see
// one and only the scrub reclaims it; quarantined specimens live under
// quarantinePrefix.
const (
	entrySuffix      = ".rep"
	tempPrefix       = ".rep-"
	quarantinePrefix = "quarantine/"
)

// specimenName is where quarantine keeps the bytes of an invalid entry:
// quarantine/<stem>-<CRC-32 of the bytes, 8 hex digits>.rep. Two
// different corruptions of one entry get two names and identical bytes
// collapse into one, so evidence accumulates without probing for a free
// name. The CRC is the IEEE polynomial, not the entry checksum's
// Castagnoli: the CRC-32C of any sealed body is one constant (the
// residue 0x48674bc7), so it would give every checksum-valid specimen
// of an entry the same name.
func specimenName(name string, data []byte) string {
	return fmt.Sprintf("%s%s-%08x%s", quarantinePrefix, strings.TrimSuffix(name, entrySuffix), crc32.ChecksumIEEE(data), entrySuffix)
}

// quarantine moves an invalid entry out of the serving namespace of s so
// it is never re-read (and re-rejected) again, keeping its bytes under
// specimenName for inspection: one Put and one Delete. A warm load and
// the scrub both call it. Best-effort on both legs: if the copy fails the
// delete still proceeds — stopping the re-read loop matters more than
// keeping the specimen — and if the delete fails the entry simply gets
// one more chance to be overwritten by a rebuild's Put. The
// copy-then-delete can, in principle, race a concurrent process renaming
// a fresh valid entry over the same name (the fresh entry would be
// deleted); that degrades to one extra rebuild, never to a wrong result,
// exactly like every other advisory failure here.
func quarantine(s Store, name string, data []byte) {
	s.Put(specimenName(name, data), data)
	s.Delete(name)
}

// getEntry reads one entry through the store, classifying the miss:
// a missing entry is a plain miss, anything else is a counted I/O error.
func (e *Engine) getEntry(name string) ([]byte, bool) {
	data, err := e.store.Get(name)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			e.diskErrors.Add(1)
		}
		return nil, false
	}
	return data, true
}

// putEntry writes one entry through the store. A failed write degrades to
// a cold cache, never to a failed run, but is counted in DiskErrors.
func (e *Engine) putEntry(name string, payload []byte) bool {
	if err := e.store.Put(name, payload); err != nil {
		e.diskErrors.Add(1)
		return false
	}
	return true
}

// entryName derives the content-addressed store name for a key under lib.
func entryName(key Key, lib *liberty.PseudoLib) string {
	h := sha256.New()
	frame := func(s string) {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	frame("rtltimer-repcache")
	h.Write([]byte(entryNameSalt))
	h.Write([]byte{byte(key.Variant)})
	frame(key.Design)
	frame(lib.Fingerprint())
	return hex.EncodeToString(h.Sum(nil)) + entrySuffix
}

// diskLoad restores a representation evaluation from the on-disk tier.
// ok is false on any miss — absent entry, I/O error (counted in
// DiskErrors), an intact entry of another entry version (a plain miss,
// which the rebuild's write replaces), or an invalid payload, which is
// quarantined (counted in Quarantined) so it can never be re-read forever.
func (e *Engine) diskLoad(key Key, lib *liberty.PseudoLib) (res *RepResult, ok bool) {
	name := entryName(key, lib)
	data, ok := e.getEntry(name)
	if !ok {
		return nil, false
	}
	res = decodeEntry(data, lib)
	if res == nil {
		if _, version, intact := openEntry(data); !intact || version == entryVersion {
			quarantine(e.store, name, data)
			e.quarantined.Add(1)
		}
		return nil, false
	}
	return res, true
}

// openEntry checks an entry's checksum and magic, returning its body (the
// bytes the checksum covers) and its entry version.
func openEntry(data []byte) (body []byte, version uint32, ok bool) {
	if len(data) < 4+4+checksumSize {
		return nil, 0, false
	}
	body, sum := data[:len(data)-checksumSize], data[len(data)-checksumSize:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(sum) || [4]byte(body[:4]) != entryMagic {
		return nil, 0, false
	}
	return body, binary.LittleEndian.Uint32(body[4:]), true
}

// decodeEntry parses and validates one entry payload, returning nil on any
// violation.
func decodeEntry(data []byte, lib *liberty.PseudoLib) *RepResult {
	body, version, ok := openEntry(data)
	if !ok || version != entryVersion || len(body) < 4+4+4+digestSize {
		return nil
	}
	graphLen := binary.LittleEndian.Uint32(body[8:])
	rest := body[12:]
	if uint64(graphLen) > uint64(len(rest)) {
		return nil
	}
	g, err := bog.UnmarshalGraph(rest[:graphLen])
	if err != nil {
		return nil
	}
	rest = rest[graphLen:]
	n, ep := len(g.Nodes), len(g.Endpoints)
	if len(rest) != digestSize+n*(4*8+4)+ep*(3*4+8) {
		return nil
	}
	digest := hex.EncodeToString(rest[:digestSize])
	arrival, rest := readF64s(rest[digestSize:], n)
	load, rest := readF64s(rest, n)
	slew, rest := readF64s(rest, n)
	delay, rest := readF64s(rest, n)
	fanout, rest := readI32s(rest, n)
	cones := make([]sta.ConeInfo, ep)
	for i := range cones {
		cones[i].Nodes = int(int32(binary.LittleEndian.Uint32(rest)))
		cones[i].DrivingRegs = int(int32(binary.LittleEndian.Uint32(rest[4:])))
		cones[i].Inputs = int(int32(binary.LittleEndian.Uint32(rest[8:])))
		rest = rest[12:]
	}
	rankPct, _ := readF64s(rest, ep)
	an, err := sta.NewAnalyzerFromState(g, lib, load, slew, delay, fanout)
	if err != nil {
		return nil
	}
	ext, err := features.NewExtractorFromState(g, an.At(arrival, 0), cones, rankPct)
	if err != nil {
		return nil
	}
	return &RepResult{Graph: g, An: an, Arrival: arrival, ArrivalSHA256: digest, Ext: ext}
}

// diskStore persists a freshly built evaluation, reporting whether an
// entry was written. Failures are advisory: a read-only or full cache
// directory degrades to a cold cache, never to a failed run.
func (e *Engine) diskStore(key Key, lib *liberty.PseudoLib, res *RepResult) bool {
	return e.putEntry(entryName(key, lib), encodeEntry(res))
}

func encodeEntry(res *RepResult) []byte {
	blob := bog.MarshalGraph(res.Graph)
	load, slew, delay, fanout := res.An.State()
	cones, rankPct := res.Ext.State()
	n, ep := len(res.Graph.Nodes), len(res.Graph.Endpoints)
	buf := make([]byte, 0, 12+len(blob)+digestSize+n*(4*8+4)+ep*(3*4+8)+checksumSize)
	buf = append(buf, entryMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, entryVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(blob)))
	buf = append(buf, blob...)
	// Every engine-made result carries its fingerprint as 64 hex digits; a
	// malformed one would fail the shape check on load, never be served.
	buf, _ = hex.AppendDecode(buf, []byte(res.ArrivalSHA256))
	buf = appendF64s(buf, res.Arrival)
	buf = appendF64s(buf, load)
	buf = appendF64s(buf, slew)
	buf = appendF64s(buf, delay)
	for _, v := range fanout {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	for _, c := range cones {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(c.Nodes)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(c.DrivingRegs)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(c.Inputs)))
	}
	buf = appendF64s(buf, rankPct)
	return sealEntry(buf)
}

func appendF64s(buf []byte, xs []float64) []byte {
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return buf
}

func readF64s(b []byte, n int) ([]float64, []byte) {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, b[8*n:]
}

func readI32s(b []byte, n int) ([]int32, []byte) {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, b[4*n:]
}
