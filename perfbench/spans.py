"""Spans around rigidres's public functions, installed from outside.

``Tracer.install`` wraps each named function and rebinds it in every
``rigidres`` module that holds it under that name (the defining module
and each ``from .x import f``), and wraps the methods named
``Class.method`` on their classes, so no file of the program changes.
Each call records a span (name, start, end, parent span, job id) in
flat arrays; counts derived from arguments and results are recorded at
the same boundary.  ``uninstall`` restores every binding.

Self time is a span's duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

import functools
import json
import sys
import time
from array import array

PACKAGE = "rigidres"

# (module, qualified name) of every timed function, grouped by layer.
TIMED = (
    ("monomials", "parse_ideal"),
    ("homology", "reduced_homology"),
    ("homology", "reduce_cycle"),
    ("betti", "crosscut_complex"),
    ("betti", "interval_ranks"),
    ("betti", "betti_numbers"),
    ("betti", "betti_poset"),
    ("betti", "rigidity_report"),
    ("posets", "lcm_lattice"),
    ("posets", "order_complex"),
    ("posets", "FiniteAtomicLattice.join"),
    ("posets", "meet_closure"),
    ("posets", "is_isomorphic"),
    ("posets", "join_preserving_map"),
    ("frames", "build_frame"),
    ("frames", "homogenize"),
    ("frames", "verify_frame"),
    ("frames", "support_length"),
    ("frames", "verify_resolution"),
    ("frames", "taylor_betti"),
    ("deform", "search_rigid_deformation"),
    ("deform", "lattice_betti_totals"),
    ("deform", "certify_rigid_deformation"),
    ("cli", "validate_payload"),
    ("cli", "resolution_to_json"),
    ("cli", "resolution_from_json"),
    ("workers", "parallel_map"),
)

# Counters: (name, unit, better).  Ratios are derived in `metrics`.
COUNTS = (
    ("homology.faces_reduced", "count", "lower"),
    ("homology.span_inserts", "count", "lower"),
    ("homology.span_insert_yield", "ratio", "higher"),
    ("betti.crosscut_faces", "count", "lower"),
    ("betti.interval_ranks.hit_ratio", "ratio", "higher"),
    ("posets.lattice_elements", "count", "lower"),
    ("posets.order_complex_faces", "count", "lower"),
    ("frames.connecting_maps", "count", "lower"),
    ("frames.strands_checked", "count", "lower"),
    ("deform.candidates_scanned", "count", "lower"),
    ("cli.res_bytes", "count", "lower"),
)


def timed_name(module, qualname):
    return f"{module}.{qualname}"


def metric_specs():
    """Every per-layer metric the tracer reports: (name, unit, better)."""
    specs = []
    for module, qualname in TIMED:
        base = timed_name(module, qualname)
        specs += [(f"{base}.calls", "count", "lower"),
                  (f"{base}.s", "s", "lower"),
                  (f"{base}.self_s", "s", "lower")]
    return specs + list(COUNTS)


def _faces(result):
    return len(result.faces)


def _elements(result):
    return len(result.elements)


def _strands(report):
    return report.strands_checked


def _candidates(outcome):
    return (len(outcome.augmentation_log)
            + (outcome.betti_poset_candidate is not None))


# The traced names each counter is measured at; a counter whose source
# no longer exists is reported as absent.
_COUNT_SOURCES = {
    "homology.faces_reduced": ("homology.reduced_homology",),
    "homology.span_inserts": ("homology.SpanBasis.insert",),
    "homology.span_insert_yield": ("homology.SpanBasis.insert",),
    "betti.crosscut_faces": ("betti.crosscut_complex",),
    "betti.interval_ranks.hit_ratio": ("betti.interval_ranks",
                                       "homology.reduced_homology"),
    "posets.lattice_elements": ("posets.lcm_lattice",),
    "posets.order_complex_faces": ("posets.order_complex",),
    "frames.connecting_maps": ("frames.build_frame", "homology.reduce_cycle"),
    "frames.strands_checked": ("frames.verify_resolution",),
    "deform.candidates_scanned": ("deform.search_rigid_deformation",),
}

# Counts taken from a traced call's result: name → (counter, function).
_RESULT_COUNTS = {
    "betti.crosscut_complex": ("betti.crosscut_faces", _faces),
    "posets.lcm_lattice": ("posets.lattice_elements", _elements),
    "posets.order_complex": ("posets.order_complex_faces", _faces),
    "frames.verify_resolution": ("frames.strands_checked", _strands),
    "deform.search_rigid_deformation": ("deform.candidates_scanned",
                                        _candidates),
}


def _durations(start, end, parent):
    """Each span's duration, and its duration minus its children's."""
    dur = [e - s for s, e in zip(start, end)]
    own = list(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= dur[i]
    return dur, own


class Tracer:
    """Span store and the wrappers that feed it."""

    def __init__(self):
        self.names = []  # span name id → name
        self._ids = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job_of = array("H")
        self.jobs = []  # job id → label
        self.counts = {name: 0 for name, _, _ in COUNTS}
        self.span_grew = 0
        self.absent = set()  # traced names and counters not measurable
        self._stack = []
        self._restore = []

    # -- recording ---------------------------------------------------------

    def begin_job(self, label):
        self.jobs.append(label)
        self._stack.clear()

    def count(self, name, k):
        self.counts[name] += k

    def _wrap(self, name, fn, result_count):
        nid = self._ids[name] = len(self.names)
        self.names.append(name)
        stack, clock = self._stack, time.perf_counter
        name_of, start, end = self.name_of, self.start, self.end
        parent, job_of, jobs = self.parent, self.job_of, self.jobs

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            job_of.append(len(jobs) - 1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if result_count is not None:
                counter, measure = result_count
                try:
                    self.counts[counter] += measure(result)
                except (AttributeError, TypeError):
                    self.absent.add(counter)  # the result changed shape
            return result

        return traced

    def _counted_insert(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def insert(*args, **kwargs):
            grew = fn(*args, **kwargs)
            counts["homology.span_inserts"] += 1
            self.span_grew += bool(grew)
            return grew

        return insert

    def _counted_homology(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def reduced_homology(K, *args, **kwargs):
            try:
                counts["homology.faces_reduced"] += _faces(K)
            except (AttributeError, TypeError):
                self.absent.add("homology.faces_reduced")
            return fn(K, *args, **kwargs)

        return reduced_homology

    # -- installation ------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE
                                      or name.startswith(PACKAGE + "."))]

    def _rebind(self, original, wrapper, attr):
        """Point every package-level binding of `original` at `wrapper`."""
        for module in self._modules():
            if module.__dict__.get(attr) is original:
                self._restore.append((module, attr, original))
                setattr(module, attr, wrapper)

    def install(self):
        for module_name, qualname in TIMED:
            name = timed_name(module_name, qualname)
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = module
            if owner is not None and owner_name:
                owner = getattr(module, owner_name, None)
            original = None
            if owner is not None:
                original = (owner.__dict__.get(attr) if owner_name
                            else getattr(owner, attr, None))
            if not callable(original):
                self.absent.add(name)
                continue
            inner = original
            if name == "homology.reduced_homology":
                inner = self._counted_homology(original)
            wrapper = self._wrap(name, inner, _RESULT_COUNTS.get(name))
            if owner_name:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._rebind(original, wrapper, attr)
        homology = sys.modules.get(f"{PACKAGE}.homology")
        basis = getattr(homology, "SpanBasis", None)
        insert = getattr(basis, "__dict__", {}).get("insert")
        if callable(insert):
            self._restore.append((basis, "insert", insert))
            basis.insert = self._counted_insert(insert)
        else:
            self.absent.add("homology.SpanBasis.insert")

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def _ancestor_named(self, idx, nid):
        """Index of the nearest ancestor span of idx named nid, or -1."""
        parent, name_of = self.parent, self.name_of
        p = parent[idx]
        while p >= 0 and name_of[p] != nid:
            p = parent[p]
        return p

    def metrics(self):
        """Per-layer metrics: name → (value, unit); absent names map to
        None."""
        dur, self_dur = _durations(self.start, self.end, self.parent)
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i, k in enumerate(self.name_of):
            calls[k] += 1
            total[k] += dur[i]
            own[k] += self_dur[i]

        out = {}
        for module, qualname in TIMED:
            base = timed_name(module, qualname)
            k = self._ids.get(base)
            for suffix, unit, value in (
                    ("calls", "count", calls), ("s", "s", total),
                    ("self_s", "s", own)):
                out[f"{base}.{suffix}"] = (
                    None if k is None else value[k], unit)

        counts = dict(self.counts)
        inserts = counts["homology.span_inserts"]
        counts["homology.span_insert_yield"] = (
            self.span_grew / inserts if inserts else 0.0)
        counts["betti.interval_ranks.hit_ratio"] = self._hit_ratio()
        counts["frames.connecting_maps"] = self._connecting_maps()
        for name, unit, _ in COUNTS:
            sources = _COUNT_SOURCES.get(name, ()) + (name,)
            missing = any(s in self.absent for s in sources)
            out[name] = (None if missing else counts[name], unit)
        return out

    def _hit_ratio(self):
        """Share of interval_ranks calls that ran no reduced_homology."""
        ranks = self._ids.get("betti.interval_ranks")
        homology = self._ids.get("homology.reduced_homology")
        if ranks is None:
            return None
        n_calls = sum(1 for k in self.name_of if k == ranks)
        missed = set()
        if homology is not None:
            for i, k in enumerate(self.name_of):
                if k == homology:
                    p = self._ancestor_named(i, ranks)
                    if p >= 0:
                        missed.add(p)
        return (n_calls - len(missed)) / n_calls if n_calls else 0.0

    def _connecting_maps(self):
        """reduce_cycle calls made under build_frame."""
        build = self._ids.get("frames.build_frame")
        reduce_ = self._ids.get("homology.reduce_cycle")
        if build is None or reduce_ is None:
            return None
        return sum(1 for i, k in enumerate(self.name_of)
                   if k == reduce_ and self._ancestor_named(i, build) >= 0)

    def write(self, stem):
        """Write the spans as `stem`.json (layout, names, job labels)
        and `stem`.bin (the arrays back to back, native byte order)."""
        arrays = (("name", self.name_of), ("start", self.start),
                  ("end", self.end), ("parent", self.parent),
                  ("job", self.job_of))
        header = {
            "spans": len(self.start),
            "byteorder": sys.byteorder,
            "arrays": [{"field": f, "typecode": a.typecode,
                        "itemsize": a.itemsize} for f, a in arrays],
            "names": self.names,
            "jobs": self.jobs,
            "clock": "time.perf_counter seconds",
        }
        with open(f"{stem}.bin", "wb") as fh:
            for _, a in arrays:
                a.tofile(fh)
        with open(f"{stem}.json", "w") as fh:
            json.dump(header, fh, indent=1)
            fh.write("\n")


def read(stem):
    """Load a span file pair written by `Tracer.write`: (header, arrays)."""
    with open(f"{stem}.json") as fh:
        header = json.load(fh)
    arrays = {}
    with open(f"{stem}.bin", "rb") as fh:
        for spec in header["arrays"]:
            a = array(spec["typecode"])
            a.fromfile(fh, header["spans"])
            if header["byteorder"] != sys.byteorder:
                a.byteswap()
            arrays[spec["field"]] = a
    return header, arrays


def job_profile(stem, pattern=""):
    """Per (job, span name): calls, inclusive and self seconds, for the
    jobs whose label contains `pattern`."""
    header, a = read(stem)
    dur, self_dur = _durations(a["start"], a["end"], a["parent"])
    rows = {}
    for i in range(header["spans"]):
        job = header["jobs"][a["job"][i]]
        if pattern not in job:
            continue
        key = (job, header["names"][a["name"][i]])
        calls, total, own = rows.get(key, (0, 0.0, 0.0))
        rows[key] = (calls + 1, total + dur[i], own + self_dur[i])
    return rows


if __name__ == "__main__":
    # python3 perfbench/spans.py perfbench/.work/trace-<workload>-seed<n> [job]
    for (job, name), (calls, total, own) in sorted(
            job_profile(*sys.argv[1:3]).items()):
        print(f"{job:40s} {name:40s} {calls:8d} {total:10.4f} s "
              f"{own:10.4f} s self")
