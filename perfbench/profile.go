package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// moduleShares decodes a gzipped pprof CPU profile and returns each
// module's self share of the samples: a sample is charged to the
// innermost frame (inlined frames included) whose function lives in
// multiedge/internal/<module>, and to runtime when it has none. Frames
// of this benchmark's own code (package main) stop the walk too and are
// charged to "perfbench", as is every sample taken under the tracer's
// gauge sampling, so neither verification inside simulated processes
// nor tracing is billed to sim. n is the number of samples.
//
// Only the fields the split needs are decoded: Profile.sample (2),
// Profile.location (4), Profile.function (5) and Profile.string_table
// (6), per github.com/google/pprof/proto/profile.proto.
func moduleShares(gz []byte) (shares map[string]float64, n int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]int64{}    // function id -> string index
	var strs []string

	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			var values []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					values = appendVarints(values, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) == 0 {
				return errors.New("sample without values")
			}
			s.count = int64(values[0])
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line: function_id is field 1
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5:
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}

	counts := map[string]int64{}
	const prefix = "multiedge/internal/"
	for _, s := range samples {
		var names []string // innermost first
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				si := funcName[fn]
				if si < 0 || si >= int64(len(strs)) {
					return nil, 0, fmt.Errorf("profile: function %d names string %d of %d", fn, si, len(strs))
				}
				names = append(names, strs[si])
			}
		}
		mod := "runtime"
		for _, name := range names {
			if rest, ok := strings.CutPrefix(name, prefix); ok {
				mod = rest[:strings.IndexAny(rest+".", "./")]
				break
			}
			if strings.HasPrefix(name, "main.") {
				mod = "perfbench"
				break
			}
		}
		for _, name := range names {
			if strings.HasPrefix(name, "main.(*tracer)") {
				mod = "perfbench" // gauge sampling reads sim and runtime state
			}
		}
		counts[mod] += s.count
		n += s.count
	}
	shares = map[string]float64{}
	for mod, c := range counts {
		shares[mod] = float64(c) / float64(max(n, 1))
	}
	return shares, n, nil
}

// fields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, k := varint(b)
		if k == 0 {
			return errors.New("truncated field key")
		}
		b = b[k:]
		num := int(key >> 3)
		var v uint64
		var body []byte
		switch key & 7 {
		case 0:
			v, k = varint(b)
			if k == 0 {
				return errors.New("truncated varint")
			}
			b = b[k:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, k := varint(b)
			if k == 0 || uint64(len(b)-k) < l {
				return errors.New("truncated bytes field")
			}
			body, b = b[k:k+int(l)], b[k+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, which arrive
// either one per field (v) or packed (b).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, k := varint(b)
		if k == 0 {
			break
		}
		dst = append(dst, x)
		b = b[k:]
	}
	return dst
}

// varint decodes one base-128 varint, returning 0 bytes read when b is
// truncated.
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
