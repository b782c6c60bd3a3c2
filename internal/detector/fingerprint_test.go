package detector

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// perturbLeaf changes the i-th bool, integer, float or string leaf of the
// value v (depth first, struct fields in order) and returns its path, or
// ok=false when v has at most i leaves.
func perturbLeaf(v reflect.Value, i int) (path string, ok bool) {
	n := 0
	var walk func(v reflect.Value, path string) (string, bool)
	walk = func(v reflect.Value, path string) (string, bool) {
		if v.Kind() == reflect.Struct {
			for f := 0; f < v.NumField(); f++ {
				if p, ok := walk(v.Field(f), path+"."+v.Type().Field(f).Name); ok {
					return p, true
				}
			}
			return "", false
		}
		if n++; n-1 != i {
			return "", false
		}
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.String:
			v.SetString(v.String() + "x")
		default:
			panic(fmt.Sprintf("perturbLeaf: unhandled leaf %s of kind %s", path, v.Kind()))
		}
		return path, true
	}
	return walk(v, "")
}

// TestFingerprintCoversReadSections perturbs every leaf of a filled config
// once per backend kind: a leaf in Kind, Dim, Seed or a section the engine
// reads must move its fingerprint, and a leaf anywhere else must not — so
// a snapshot never restores under different tuning, and retuning one
// engine never invalidates another engine's snapshots.
func TestFingerprintCoversReadSections(t *testing.T) {
	reads := map[Kind][]string{
		KindKernelChain: {"Criterion", "Core", "Distance", "MDEF"},
		KindQn:          {"Qn"},
		KindCoreset:     {"Coreset", "Distance"},
		KindEWMA:        {"EWMA"},
	}
	for _, k := range AllKinds() {
		filled := func() Config {
			cfg := testConfig(k, 2, 7).withDefaults()
			cfg.Core.BandwidthScale = 1
			return cfg
		}
		fp, err := filled().fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		covered := map[string]bool{"Kind": true, "Dim": true, "Seed": true}
		for _, sec := range reads[k] {
			covered[sec] = true
		}
		for i := 0; ; i++ {
			cfg := filled()
			path, ok := perturbLeaf(reflect.ValueOf(&cfg).Elem(), i)
			if !ok {
				break
			}
			got, err := cfg.fingerprint()
			if err != nil {
				t.Fatalf("%s %s: %v", k, path, err)
			}
			section := strings.SplitN(path[1:], ".", 2)[0]
			if moved := string(got) != string(fp); moved != covered[section] {
				t.Errorf("%s: perturbing %s moved the fingerprint: %v, want %v", k, path, moved, covered[section])
			}
		}
	}
}

// TestNewRefusesUnencodableConfig: a kernelchain under the distance
// criterion does not validate its MDEF section, but fingerprints it, so a
// NaN there is refused at construction rather than panicking or binding
// snapshots to a config that has no encoding.
func TestNewRefusesUnencodableConfig(t *testing.T) {
	cfg := testConfig(KindKernelChain, 1, 3)
	cfg.MDEF.KSigma = math.NaN()
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted a kernelchain config whose MDEF section cannot encode")
	}
}
