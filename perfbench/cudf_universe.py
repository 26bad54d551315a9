"""Seeded Debian-like CUDF universes and an independent checker for solutions.

The shape and its distributions follow the repo's own generator
(lib/cudf/synth.ml), written again here from its description so that the
benchmark's inputs and checks do not come from the program under test:
a tenth of the names carry tall version columns (8 to 20 versions);
every stanza conflicts with its own name (one version per name, as in
real distributions); virtual features have provider cliques (each
provider conflicts with the feature it provides, so providers of one
feature are mutually exclusive); dependencies are CNF over names and
features, their targets drawn from a power law; about 35% of the names are
installed, mostly at an old version.

Every universe is satisfiable by construction.  Names are split into
providers, leaves and free names.  Each depends clause is either satisfied
by the newest version of a free name or by any provider of a feature, so

    W = {newest of every free name} + {one provider per feature}
        + {kept leaves at their installed version}

is a valid final state (the witness).  Removes only name unkept leaves, so
W meets the request too.  The checker uses W's cost as an upper bound on
the optimum the solver claims.
"""

import random

OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
}


def generate(seed, n):
    """A universe of exactly ``n`` package stanzas plus one request."""
    rng = random.Random("cudf:%d:%d" % (seed, n))
    nnames = max(6, n // 3)
    heights = [
        rng.randint(8, 20) if rng.random() < 0.1 else rng.randint(1, 5)
        for _ in range(nnames)
    ]
    i = 0
    while sum(heights) != n:
        k = i % nnames
        if sum(heights) > n and heights[k] > 1:
            heights[k] -= 1
        elif sum(heights) < n:
            heights[k] += 1
        i += 1

    def name(k):
        return "pkg%05d" % k

    n_prov = max(2, nnames * 12 // 100)
    n_leaf = max(2, nnames * 18 // 100)
    n_virt = max(1, n_prov // 4)

    def virt(j):
        return "virt%03d" % j

    free = list(range(n_prov + n_leaf, nnames))

    def is_leaf(k):
        return n_prov <= k < n_prov + n_leaf

    def pick_free():
        # a power law over dependency targets: most edges land on a few
        # base libraries, so closures stay small and overlap
        u = rng.random()
        return free[int(u * u * len(free))]

    installed = [0] * nnames
    for k, h in enumerate(heights):
        if rng.random() < 0.35:
            installed[k] = rng.randint(1, h - 1) if h > 1 else 1
    keep = [None] * nnames
    for k in range(nnames):
        if installed[k] and is_leaf(k):
            if rng.random() < 0.2:
                keep[k] = "version"
            elif rng.random() < 0.12:
                keep[k] = "package"
    installed_free = [k for k in free if installed[k]]

    def coherent_clause(self_k):
        # resolvable inside the installed world, and by any upgrade of it
        cands = [k for k in installed_free if k != self_k]
        if not cands:
            return None
        t = rng.choice(cands)
        c = None if rng.random() < 0.6 else (">=", rng.randint(1, installed[t]))
        return [(name(t), c)]

    def safe_literal(self_k):
        if rng.random() < 0.25:
            j = rng.randrange(n_virt)
            if self_k >= n_prov or self_k % n_virt != j:
                return (virt(j), None)
        t = pick_free()
        while t == self_k:
            t = pick_free()
        r = rng.random()
        if r < 0.5:
            c = None
        elif r < 0.9:
            c = (">=", rng.randint(1, heights[t]))
        else:
            c = ("=", heights[t])
        return (name(t), c)

    def wild_literal(self_k):
        t = rng.randrange(nnames)
        if t == self_k:
            return None
        op = rng.randint(0, 4)
        if op == 0:
            return (name(t), None)
        if op == 1:
            return (name(t), (">=", rng.randint(1, heights[t] + 2)))
        if op == 4:
            return (name(t), ("!=", rng.randint(1, heights[t])))
        return (name(t), ("<" if op == 2 else "=", rng.randint(1, heights[t] + 1)))

    def clause(self_k):
        if rng.random() < 0.75:
            cl = coherent_clause(self_k)
            if cl:
                return cl
        cl = [safe_literal(self_k)]
        if rng.random() < 0.5:
            w = wild_literal(self_k)
            if w:
                cl.append(w)
        return cl

    packages = []
    for k in range(nnames):
        for v in range(1, heights[k] + 1):
            is_inst = installed[k] == v
            if is_inst:
                depends = [c for c in (coherent_clause(k) for _ in range(rng.randint(0, 2))) if c]
            else:
                depends = [clause(k) for _ in range(rng.randint(0, 3))]
            conflicts = [(name(k), None)]
            provides = []
            if k < n_prov:
                conflicts.append((virt(k % n_virt), None))
                provides.append((virt(k % n_virt), v if rng.random() < 0.3 else None))
            recommends = []
            if v < heights[k] and rng.random() < 0.3:
                cl = coherent_clause(k) if rng.random() < 0.75 else None
                if cl is None:
                    t = rng.randrange(nnames)
                    cl = [(name(t), (">", heights[t] + 5))]
                recommends.append(cl)
            packages.append(
                {
                    "name": name(k),
                    "version": v,
                    "depends": depends,
                    "conflicts": conflicts,
                    "provides": provides,
                    "recommends": recommends,
                    "installed": is_inst,
                    "keep": keep[k] if is_inst else None,
                }
            )

    install = []
    for _ in range(rng.randint(2, 4)):
        t = pick_free()
        install.append((name(t), None if rng.random() < 0.5 else (">=", rng.randint(1, heights[t]))))
    upgrade = [(name(k), None) for k in installed_free[:rng.randint(1, 3)]]
    removable = [k for k in range(nnames) if is_leaf(k) and installed[k] and keep[k] is None]
    remove = [(name(k), None) for k in removable[:rng.randint(1, 2)]]

    witness = {name(k): heights[k] for k in free}
    for j in range(n_virt):
        witness[name(j)] = heights[j]
    for k in range(nnames):
        if keep[k]:
            witness[name(k)] = installed[k]
    return {
        "packages": packages,
        "request": {"install": install, "upgrade": upgrade, "remove": remove},
        "witness": sorted(witness.items()),
    }


def _lit(lit):
    n, c = lit
    return n if c is None else "%s %s %d" % (n, c[0], c[1])


def render(u, req_id):
    """The universe as CUDF text."""
    out = []
    for p in u["packages"]:
        out.append("package: %s\nversion: %d\n" % (p["name"], p["version"]))
        if p["depends"]:
            out.append("depends: %s\n" % ", ".join(" | ".join(map(_lit, cl)) for cl in p["depends"]))
        out.append("conflicts: %s\n" % ", ".join(map(_lit, p["conflicts"])))
        if p["provides"]:
            out.append(
                "provides: %s\n"
                % ", ".join(f if v is None else "%s = %d" % (f, v) for f, v in p["provides"])
            )
        if p["recommends"]:
            out.append("recommends: %s\n" % ", ".join(" | ".join(map(_lit, cl)) for cl in p["recommends"]))
        if p["installed"]:
            out.append("installed: true\n")
        if p["keep"]:
            out.append("keep: %s\n" % p["keep"])
        out.append("\n")
    r = u["request"]
    out.append("request: %s\n" % req_id)
    for key in ("install", "upgrade", "remove"):
        if r[key]:
            out.append("%s: %s\n" % (key, ", ".join(map(_lit, r[key]))))
    return "".join(out)


def _satisfies(p, lit):
    n, c = lit
    if p["name"] == n and (c is None or OPS[c[0]](p["version"], c[1])):
        return True
    return any(f == n and (w is None or c is None or OPS[c[0]](w, c[1])) for f, w in p["provides"])


def costs(u, state, stack):
    """The criterion values of a final state, highest priority first."""
    index = {(p["name"], p["version"]): p for p in u["packages"]}
    inst = {(p["name"], p["version"]) for p in u["packages"] if p["installed"]}
    inst_names = {n for n, _ in inst}
    state = set(state)
    names = {n for n, _ in state}
    if stack == "paranoid":
        removed = len(inst_names - names)
        changed = len({n for n, _ in state - inst} | {n for n, _ in inst - state})
        return [removed, changed]
    newest = {}
    for n, v in index:
        newest[n] = max(newest.get(n, 0), v)
    outdated = sum(1 for n in names if (n, newest[n]) not in state)
    new = len(names - inst_names)
    chosen = [index[s] for s in state]
    unmet = sum(
        1 for p in chosen for cl in p["recommends"] if not any(_satisfies(q, l) for l in cl for q in chosen)
    )
    return [outdated, new, unmet]


def check(u, state, stack, claimed):
    """Problems with a claimed optimal final state; empty when it is valid,
    its printed costs are its real costs, and they do not exceed the
    witness's."""
    index = {(p["name"], p["version"]): p for p in u["packages"]}
    errs = []
    unknown = [s for s in state if s not in index]
    if unknown:
        return ["unknown stanzas in the final state: %s" % unknown[:3]]
    chosen = [index[s] for s in state]
    for p in chosen:
        for cl in p["depends"]:
            if not any(_satisfies(q, l) for l in cl for q in chosen):
                errs.append("%s=%d: unmet depends %s" % (p["name"], p["version"], cl))
        for l in p["conflicts"]:
            if any(q is not p and _satisfies(q, l) for q in chosen):
                errs.append("%s=%d: conflict %s" % (p["name"], p["version"], _lit(l)))
    r = u["request"]
    for l in r["install"]:
        if not any(_satisfies(q, l) for q in chosen):
            errs.append("install %s unmet" % _lit(l))
    for l in r["upgrade"]:
        vs = [v for n, v in state if n == l[0]]
        was = [p["version"] for p in u["packages"] if p["installed"] and p["name"] == l[0]]
        if len(vs) != 1 or (was and vs[0] < max(was)):
            errs.append("upgrade %s unmet" % _lit(l))
    for l in r["remove"]:
        if any(_satisfies(q, l) for q in chosen):
            errs.append("remove %s unmet" % _lit(l))
    in_state = set(state)
    for p in u["packages"]:
        if p["keep"] == "version" and (p["name"], p["version"]) not in in_state:
            errs.append("keep: version %s=%d dropped" % (p["name"], p["version"]))
        if p["keep"] == "package" and not any(n == p["name"] for n, _ in state):
            errs.append("keep: package %s dropped" % p["name"])
    real = costs(u, state, stack)
    if claimed != real:
        errs.append("claimed costs %s, actual %s" % (claimed, real))
    bound = costs(u, u["witness"], stack)
    if real > bound:
        errs.append("costs %s exceed the witness's %s" % (real, bound))
    return errs
