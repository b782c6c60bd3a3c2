package sample

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"odds/internal/window"
)

// chainBytesDigest pushes 3·w readings into a chain of k slots over a
// window of w at dimension d and hashes MarshalBinary at arrivals w/2, w
// and 3·w: the first 16 hex digits of a SHA-256 over the three blobs.
func chainBytesDigest(t testing.TB, k, w, d int, recycle bool, seed int64) string {
	c := NewChain(k, w, d, rand.New(rand.NewSource(seed)))
	if recycle {
		c.EnableRecycling()
	}
	data := rand.New(rand.NewSource(seed + 1000))
	p := make(window.Point, d)
	h := sha256.New()
	for i := 1; i <= 3*w; i++ {
		for j := range p {
			p[j] = data.Float64()
		}
		c.Push(p)
		if i == w/2 || i == w || i == 3*w {
			blob, err := c.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%d:", len(blob))
			h.Write(blob)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// parentChainDigests holds chainBytesDigest as computed at commit 9c05e90,
// whose chain kept its event schedules in two hash maps of slot lists.
// Recycling changes no byte, so one digest covers both settings.
var parentChainDigests = map[string]string{
	"k=1 w=5 d=1 seed=1":       "64cea51cfa9f4368",
	"k=1 w=5 d=1 seed=2":       "55a877341cebf499",
	"k=1 w=5 d=1 seed=3":       "d0cf7bd94474412a",
	"k=1 w=5 d=3 seed=1":       "b30c575018cd49dc",
	"k=1 w=5 d=3 seed=2":       "63734aefdb93d641",
	"k=1 w=5 d=3 seed=3":       "3ef43b78124bd3cc",
	"k=1 w=60 d=1 seed=1":      "af96c5b56cc5bc38",
	"k=1 w=60 d=1 seed=2":      "c8b99bff479c8307",
	"k=1 w=60 d=1 seed=3":      "50f539d28ea701f1",
	"k=1 w=60 d=3 seed=1":      "e398916038a26499",
	"k=1 w=60 d=3 seed=2":      "51c3dbf75d542821",
	"k=1 w=60 d=3 seed=3":      "5132e1cc8bb7e77f",
	"k=1 w=2000 d=1 seed=1":    "45eb64ca35a15c69",
	"k=1 w=2000 d=1 seed=2":    "39b70dab481752a9",
	"k=1 w=2000 d=1 seed=3":    "891d9a33738d2bd1",
	"k=1 w=2000 d=3 seed=1":    "1cc992ba8b7502c4",
	"k=1 w=2000 d=3 seed=2":    "4f195163add2d40b",
	"k=1 w=2000 d=3 seed=3":    "b85c609466a10f4b",
	"k=1 w=10000 d=1 seed=1":   "a5a14b71f0ae70e9",
	"k=1 w=10000 d=1 seed=2":   "aaa9fe24b12c283e",
	"k=1 w=10000 d=1 seed=3":   "a9e722e4577bd88c",
	"k=1 w=10000 d=3 seed=1":   "e155d0e5939ffa14",
	"k=1 w=10000 d=3 seed=2":   "0ffcf1998208fd03",
	"k=1 w=10000 d=3 seed=3":   "b16987f9c2315c03",
	"k=7 w=5 d=1 seed=1":       "c4b58cd3480523a8",
	"k=7 w=5 d=1 seed=2":       "fe8bf83c7a1ab759",
	"k=7 w=5 d=1 seed=3":       "f7254b143b132fa1",
	"k=7 w=5 d=3 seed=1":       "b618ae03193e26d2",
	"k=7 w=5 d=3 seed=2":       "eefabe62bd494099",
	"k=7 w=5 d=3 seed=3":       "cb7e01e67e22046d",
	"k=7 w=60 d=1 seed=1":      "907355f683135da1",
	"k=7 w=60 d=1 seed=2":      "c6fa9d50cf2c95bd",
	"k=7 w=60 d=1 seed=3":      "7da82d80c65b429b",
	"k=7 w=60 d=3 seed=1":      "a7603e5820945e58",
	"k=7 w=60 d=3 seed=2":      "d7112c5797f784c3",
	"k=7 w=60 d=3 seed=3":      "177854fe6ccc15fd",
	"k=7 w=2000 d=1 seed=1":    "6ebb81a5d43e7bcc",
	"k=7 w=2000 d=1 seed=2":    "2b7bbdd7f8e818c6",
	"k=7 w=2000 d=1 seed=3":    "1b44a647166078cc",
	"k=7 w=2000 d=3 seed=1":    "63ce1c8eccf6b893",
	"k=7 w=2000 d=3 seed=2":    "79335c0868f76c8e",
	"k=7 w=2000 d=3 seed=3":    "970b4ef70d325501",
	"k=7 w=10000 d=1 seed=1":   "bf1cdaf9cfaf44d4",
	"k=7 w=10000 d=1 seed=2":   "67e820029204cc10",
	"k=7 w=10000 d=1 seed=3":   "27d7c41a85c7bc37",
	"k=7 w=10000 d=3 seed=1":   "9372a0a5365172b9",
	"k=7 w=10000 d=3 seed=2":   "dd89e27847a1c24a",
	"k=7 w=10000 d=3 seed=3":   "802150f9fdea0177",
	"k=100 w=5 d=1 seed=1":     "4bc5d8ad1803d70c",
	"k=100 w=5 d=1 seed=2":     "9b700e1d14a2d3ce",
	"k=100 w=5 d=1 seed=3":     "76222e140a353b73",
	"k=100 w=5 d=3 seed=1":     "7d68565312083b71",
	"k=100 w=5 d=3 seed=2":     "7ee68d4c16332586",
	"k=100 w=5 d=3 seed=3":     "54ad46858df17cd7",
	"k=100 w=60 d=1 seed=1":    "d483815f55bdc931",
	"k=100 w=60 d=1 seed=2":    "d3389d1468224e9d",
	"k=100 w=60 d=1 seed=3":    "0a6444697460d117",
	"k=100 w=60 d=3 seed=1":    "28a2b36037fee81c",
	"k=100 w=60 d=3 seed=2":    "3a758e8e55f93b1e",
	"k=100 w=60 d=3 seed=3":    "0a0d4f5f3bfc035a",
	"k=100 w=2000 d=1 seed=1":  "72cff0ad10bfd22f",
	"k=100 w=2000 d=1 seed=2":  "da24916370c04d08",
	"k=100 w=2000 d=1 seed=3":  "d44b8721ea81c504",
	"k=100 w=2000 d=3 seed=1":  "72c8ce6a63b6e8bb",
	"k=100 w=2000 d=3 seed=2":  "fdec38cc03f5597e",
	"k=100 w=2000 d=3 seed=3":  "b1db85cbc0c32928",
	"k=100 w=10000 d=1 seed=1": "77f2a57cb74b22e9",
	"k=100 w=10000 d=1 seed=2": "703be68bd926ee72",
	"k=100 w=10000 d=1 seed=3": "273e42b041671f48",
	"k=100 w=10000 d=3 seed=1": "5679d06e4be49a3b",
	"k=100 w=10000 d=3 seed=2": "78c379b38932314d",
	"k=100 w=10000 d=3 seed=3": "c4785899eac2320a",
	"k=500 w=5 d=1 seed=1":     "8eecccdbf58163e5",
	"k=500 w=5 d=1 seed=2":     "c7ba138035a3697a",
	"k=500 w=5 d=1 seed=3":     "4021cab4bf5e06e6",
	"k=500 w=5 d=3 seed=1":     "048be4ac94f9805e",
	"k=500 w=5 d=3 seed=2":     "76eacc69c829ceaf",
	"k=500 w=5 d=3 seed=3":     "939c985ab10521e9",
	"k=500 w=60 d=1 seed=1":    "55c88315bf6962da",
	"k=500 w=60 d=1 seed=2":    "8a1ee00ffa342363",
	"k=500 w=60 d=1 seed=3":    "412754677aafc02b",
	"k=500 w=60 d=3 seed=1":    "4e3bc9fe956a16df",
	"k=500 w=60 d=3 seed=2":    "339f5bed15b0754c",
	"k=500 w=60 d=3 seed=3":    "a7c82f1eba3d72fa",
	"k=500 w=2000 d=1 seed=1":  "7503c39cb9d4146b",
	"k=500 w=2000 d=1 seed=2":  "cce2267528e5e105",
	"k=500 w=2000 d=1 seed=3":  "3d469ace5c5f9c95",
	"k=500 w=2000 d=3 seed=1":  "7e66702353e9da09",
	"k=500 w=2000 d=3 seed=2":  "af68389beb2f5883",
	"k=500 w=2000 d=3 seed=3":  "b6493f256fb78939",
	"k=500 w=10000 d=1 seed=1": "f3f44f3e85daa29a",
	"k=500 w=10000 d=1 seed=2": "ecd8618b992db043",
	"k=500 w=10000 d=1 seed=3": "cf307da3072a21c0",
	"k=500 w=10000 d=3 seed=1": "08366a041ff51228",
	"k=500 w=10000 d=3 seed=2": "ddad80897a096ba1",
	"k=500 w=10000 d=3 seed=3": "7a8ef7f6109872f8",
}

// TestChainBytesMatchParent pins the calendar schedule to the hash-map
// schedule it replaced, across shapes: every rng draw lands where it did,
// so every snapshot byte is the same, with recycling on and off.
func TestChainBytesMatchParent(t *testing.T) {
	for _, k := range []int{1, 7, 100, 500} {
		for _, w := range []int{5, 60, 2000, 10_000} {
			for _, d := range []int{1, 3} {
				for seed := int64(1); seed <= 3; seed++ {
					key := fmt.Sprintf("k=%d w=%d d=%d seed=%d", k, w, d, seed)
					want, ok := parentChainDigests[key]
					if !ok {
						t.Fatalf("%s: no parent digest", key)
					}
					for _, recycle := range []bool{false, true} {
						if got := chainBytesDigest(t, k, w, d, recycle, seed); got != want {
							t.Errorf("%s recycle=%v: digest %s, parent %s", key, recycle, got, want)
						}
					}
				}
			}
		}
	}
}
