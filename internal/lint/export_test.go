package lint

// SimCorePackages lets the external test check that every entry still
// names a package.
var SimCorePackages = simCorePackages
