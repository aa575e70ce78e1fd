package cli

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"ugs"
)

// loadGraphAuto loads a graph by extension: a .ugsb file is opened as a
// fully validated memory mapping (no parsing), anything else is parsed as
// the text interchange format under trusted local-file limits.
func loadGraphAuto(path string) (*ugs.Graph, error) {
	if filepath.Ext(path) == ".ugsb" {
		return ugs.OpenMappedGraph(path)
	}
	return ugs.ReadGraphFile(path)
}

// writeGraphAuto writes a graph by extension: .ugsb binary (lossless),
// anything else text (which drops p = 0 edges, per the format contract).
func writeGraphAuto(path string, g *ugs.Graph) error {
	if filepath.Ext(path) == ".ugsb" {
		return ugs.WriteBinaryGraphFile(path, g)
	}
	return ugs.WriteGraphFile(path, g)
}

// RunConvert is the "ugs convert" verb: translate a graph between the text
// interchange format and the .ugsb binary format, in either direction (the
// output extension selects the target). Text → .ugsb is the usual
// direction: the binary file loads via mmap with no parsing, which is what
// ugs-serve's memory-budgeted store and the sparsify/query tools want for
// large graphs.
func RunConvert(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ugs convert", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in  = fs.String("in", "", "input graph file, text or .ugsb (required)")
		out = fs.String("out", "", "output graph file; a .ugsb extension writes binary, anything else text (required)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *in == "" || *out == "" {
		fmt.Fprintln(stderr, "ugs convert: -in and -out are required")
		fs.Usage()
		return 2
	}

	g, err := loadGraphAuto(*in)
	if err != nil {
		fmt.Fprintln(stderr, "ugs convert:", err)
		return 1
	}
	defer g.Close()
	if err := writeGraphAuto(*out, g); err != nil {
		fmt.Fprintln(stderr, "ugs convert:", err)
		return 1
	}

	inSize, outSize := fileSize(*in), fileSize(*out)
	fmt.Fprintf(stdout, "converted %s (%s) -> %s (%s): %d vertices, %d edges\n",
		*in, humanBytes(inSize), *out, humanBytes(outSize), g.NumVertices(), g.NumEdges())
	return 0
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// humanBytes renders a byte count with a binary suffix.
func humanBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

// parseBytes parses a byte size with an optional K/M/G binary suffix
// ("512M", "2G", "1048576"). Empty means 0; a size above math.MaxInt64
// bytes is an error.
func parseBytes(s string) (int64, error) {
	num := strings.TrimSpace(s)
	if num == "" {
		return 0, nil
	}
	mult := int64(1)
	switch num[len(num)-1] {
	case 'k', 'K':
		mult, num = 1<<10, num[:len(num)-1]
	case 'm', 'M':
		mult, num = 1<<20, num[:len(num)-1]
	case 'g', 'G':
		mult, num = 1<<30, num[:len(num)-1]
	}
	v, err := strconv.ParseInt(strings.TrimSpace(num), 10, 64)
	if err != nil || v < 0 || v > math.MaxInt64/mult {
		return 0, fmt.Errorf("bad byte size %q (want e.g. 512M, 2G)", s)
	}
	return v * mult, nil
}
