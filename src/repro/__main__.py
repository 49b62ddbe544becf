"""``python -m repro`` — command-line entry points.

``python -m repro serve ...`` starts the async serving front-end
(:mod:`repro.serve.cli`); ``python -m repro cluster ...`` starts the sharded
multi-worker coordinator (:mod:`repro.cluster.cli`); ``python -m repro
cacheserve ...`` starts the standalone network cache server
(:mod:`repro.cachenet.cli`); ``python -m repro loadgen ...`` drives sustained
traffic against serve/cluster and reports latencies
(:mod:`repro.loadgen.cli`); anything else is the batch experiment runner CLI
(:mod:`repro.experiments.runner`).
"""

import sys


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "serve":
        from repro.serve.cli import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "cluster":
        from repro.cluster.cli import main as cluster_main

        return cluster_main(argv[1:])
    if argv and argv[0] == "cacheserve":
        from repro.cachenet.cli import main as cacheserve_main

        return cacheserve_main(argv[1:])
    if argv and argv[0] == "loadgen":
        from repro.loadgen.cli import main as loadgen_main

        return loadgen_main(argv[1:])
    from repro.experiments.runner import main as runner_main

    return runner_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
