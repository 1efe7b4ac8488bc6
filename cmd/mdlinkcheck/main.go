// Command mdlinkcheck verifies intra-repository markdown links: every
// relative [text](target) in every tracked .md file must point at an
// existing file (and, for #fragments into markdown files, at an existing
// GitHub-style heading anchor). External links (http, https, mailto) are
// not fetched. CI runs it over the repository root so architecture docs
// and README cross-references cannot rot silently.
//
//	go run ./cmd/mdlinkcheck .
package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkRe matches inline markdown links, non-greedily, skipping images by
// capturing the preceding character class via the (?:^|[^!]) guard being
// unnecessary: image links point at files too and are worth checking.
var linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// codeSpanRe matches inline code spans: markdown renders their content
// literally, so a quoted plan rendering such as `σ[…](⟦reqH⟧)` is not a link.
var codeSpanRe = regexp.MustCompile("`[^`\n]*`")

// headingRe matches ATX headings.
var headingRe = regexp.MustCompile(`(?m)^#{1,6}\s+(.+?)\s*$`)

// anchorize reduces a heading to its GitHub anchor: lowercase, punctuation
// dropped (underscores kept), spaces to hyphens.
func anchorize(h string) string {
	// Strip inline code/emphasis markers and links before slugging.
	h = strings.NewReplacer("`", "", "*", "").Replace(h)
	if m := regexp.MustCompile(`\[([^\]]*)\]\([^)]*\)`).FindStringSubmatch(h); m != nil {
		h = strings.Replace(h, m[0], m[1], 1)
	}
	var b strings.Builder
	for _, r := range strings.ToLower(h) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_':
			b.WriteRune(r)
		case r == ' ' || r == '-':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// anchors returns the set of heading anchors of a markdown file, with
// GitHub's -1/-2… suffixes on repeated headings.
func anchors(path string) (map[string]bool, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]bool)
	seen := make(map[string]int)
	for _, m := range headingRe.FindAllStringSubmatch(string(buf), -1) {
		a := anchorize(m[1])
		if n := seen[a]; n > 0 {
			out[fmt.Sprintf("%s-%d", a, n)] = true
		} else {
			out[a] = true
		}
		seen[a]++
	}
	return out, nil
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var mds []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() && (name == ".git" || name == "node_modules") {
			return filepath.SkipDir
		}
		// SNIPPETS.md quotes exemplar files from other repositories
		// verbatim, links included; those targets are not ours to check.
		if !d.IsDir() && strings.HasSuffix(name, ".md") && name != "SNIPPETS.md" {
			mds = append(mds, path)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdlinkcheck: %v\n", err)
		os.Exit(1)
	}

	broken := 0
	complain := func(file, link, why string) {
		fmt.Fprintf(os.Stderr, "mdlinkcheck: %s: broken link %q (%s)\n", file, link, why)
		broken++
	}
	for _, md := range mds {
		buf, err := os.ReadFile(md)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdlinkcheck: %v\n", err)
			os.Exit(1)
		}
		for _, m := range linkRe.FindAllStringSubmatch(codeSpanRe.ReplaceAllString(string(buf), ""), -1) {
			link := m[1]
			if strings.HasPrefix(link, "http://") || strings.HasPrefix(link, "https://") ||
				strings.HasPrefix(link, "mailto:") {
				continue
			}
			target, frag, _ := strings.Cut(link, "#")
			resolved := md // a bare #fragment targets the same file
			if target != "" {
				resolved = filepath.Join(filepath.Dir(md), target)
				if st, err := os.Stat(resolved); err != nil {
					complain(md, link, "target missing")
					continue
				} else if st.IsDir() {
					continue // directory links render as listings
				}
			}
			if frag != "" && strings.HasSuffix(resolved, ".md") {
				as, err := anchors(resolved)
				if err != nil {
					complain(md, link, err.Error())
					continue
				}
				if !as[frag] {
					complain(md, link, "no such heading anchor")
				}
			}
		}
	}
	if broken > 0 {
		fmt.Fprintf(os.Stderr, "mdlinkcheck: %d broken link(s)\n", broken)
		os.Exit(1)
	}
	fmt.Printf("mdlinkcheck: %d markdown files clean\n", len(mds))
}
