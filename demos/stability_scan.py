"""Scan characteristic varieties across levels and report stability.

For each module the script computes Char^(m) for m = 0..2 together with a
microlocal-support crosscheck (``micro_support_test``) at that level, and
reports the least level from which the variety stops changing
(``stability_probe``; it needs complete certificates).

The Euler module D/(x d - 1) is stable from level 0; D/(d - x) flips between
levels 0 and 1 and is stable only from level 1.

Run:  python3 demos/stability_scan.py
"""

from microdiff import (
    Bounds,
    CyclicModule,
    DiffOp,
    char_variety,
    micro_support_test,
    render_diffop,
    stability_probe,
)

P = 2


def main() -> None:
    d = DiffOp.dx(P, 0)
    x = DiffOp.x(P, 0)
    modules = [
        ("Euler", x * d - DiffOp.one(P, 0)),
        ("exponential-type", d - x),
    ]
    for name, rel in modules:
        M = CyclicModule(P, 0, [rel])
        print(f"module D/({render_diffop(rel)})  [{name}]")
        for level in range(3):
            Ml = M.level_raised(level)
            cv = char_variety(Ml, Bounds())
            supp = micro_support_test(Ml, [level], window=-10, char=cv)
            desc = cv.char_class
            if cv.fibers:
                desc += f" {cv.fibers}"
            print(
                f"  level {level}: Char = {desc:<28} "
                f"complete={cv.complete}  support-agree={supp['crosscheck']['agree']}"
            )
        probe = stability_probe(M, mprime_max=2, bounds=Bounds())
        print(f"  stable from level: {probe['stable_from']}\n")


if __name__ == "__main__":
    main()
