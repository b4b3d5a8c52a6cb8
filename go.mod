// Zero require directives, deliberately: the build must stay hermetic
// on an offline machine with an empty module cache.  In particular the
// hyadeslint analyzer suite (internal/lint) re-implements the slice of
// golang.org/x/tools/go/analysis it needs on the standard library
// instead of depending on x/tools; see "Toolchain hermeticity" in
// DESIGN.md before adding any external module here.
module hyades

go 1.23
