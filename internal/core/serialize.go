package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"sort"

	"rtltimer/internal/bog"
	"rtltimer/internal/ml/ltr"
	"rtltimer/internal/ml/tree"
)

// modelWire is the on-disk representation of a trained model. Options are
// stored so that prediction-time behavior (representations, sampling mode)
// matches training.
//
// Determinism contract: saving the same model twice must produce
// identical bytes — the planned digest-keyed model persistence (ROADMAP
// 5b) stores artifacts content-addressed, so byte identity is the cache
// key. gob encodes maps in randomized iteration order, so every
// collection here is a slice in sorted key order; the rtllint maporder
// analyzer guards the Save path against regressions.
type modelWire struct {
	Version   int
	Opts      Options
	BitModels []bitModelWire // sorted by Variant
	Ensemble  []byte
	Signal    []byte
	Ranker    []byte
	WNS       []byte
	TNS       []byte
	Period    float64
}

// bitModelWire is one per-representation regressor, keyed explicitly so
// the slice order is self-describing.
type bitModelWire struct {
	Variant int
	Data    []byte
}

// wireVersion 2 replaced the BitModels map (nondeterministic gob bytes)
// with the sorted slice; version-1 blobs predate any shipped artifact
// store and are not readable.
const wireVersion = 2

// Save serializes the trained model with encoding/gob. Two Saves of the
// same model produce identical bytes.
func (m *Model) Save(w io.Writer) error {
	wire := modelWire{
		Version: wireVersion,
		Opts:    m.Opts,
		Period:  m.Period,
	}
	var err error
	variants := make([]int, 0, len(m.BitModels))
	for v := range m.BitModels {
		variants = append(variants, int(v))
	}
	sort.Ints(variants)
	for _, v := range variants {
		data, eerr := m.BitModels[bog.Variant(v)].GobEncode()
		if eerr != nil {
			return fmt.Errorf("core: save bit model %v: %w", bog.Variant(v), eerr)
		}
		wire.BitModels = append(wire.BitModels, bitModelWire{Variant: v, Data: data})
	}
	if wire.Ensemble, err = m.Ensemble.GobEncode(); err != nil {
		return err
	}
	if wire.Signal, err = m.Signal.GobEncode(); err != nil {
		return err
	}
	if wire.Ranker, err = m.Ranker.GobEncode(); err != nil {
		return err
	}
	if wire.WNS, err = m.WNSModel.GobEncode(); err != nil {
		return err
	}
	if wire.TNS, err = m.TNSModel.GobEncode(); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(&wire)
}

// Load deserializes a model saved with Save.
func Load(r io.Reader) (*Model, error) {
	var wire modelWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	if wire.Version != wireVersion {
		return nil, fmt.Errorf("core: model version %d unsupported", wire.Version)
	}
	m := &Model{Opts: wire.Opts, Period: wire.Period, BitModels: map[bog.Variant]*tree.Regressor{}}
	decode := func(data []byte) (*tree.Regressor, error) {
		reg := &tree.Regressor{}
		err := reg.GobDecode(data)
		return reg, err
	}
	for _, bm := range wire.BitModels {
		reg, err := decode(bm.Data)
		if err != nil {
			return nil, err
		}
		m.BitModels[bog.Variant(bm.Variant)] = reg
	}
	var err error
	if m.Ensemble, err = decode(wire.Ensemble); err != nil {
		return nil, err
	}
	if m.Signal, err = decode(wire.Signal); err != nil {
		return nil, err
	}
	m.Ranker = &ltr.Model{}
	if err := m.Ranker.GobDecode(wire.Ranker); err != nil {
		return nil, err
	}
	if m.WNSModel, err = decode(wire.WNS); err != nil {
		return nil, err
	}
	if m.TNSModel, err = decode(wire.TNS); err != nil {
		return nil, err
	}
	return m, nil
}

// SaveFile and LoadFile are path-based conveniences.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return m.Save(f)
}

// LoadFile reads a model from disk.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
