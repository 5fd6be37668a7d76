// The benchmark is a module of its own so that it builds from the files under
// benchmark/ alone plus the product module one directory up; its import path
// sits under repro/ so the product's internal packages stay importable.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
