"""``python -m stochsqp``: the experiment driver's command line."""

from .harness import main

if __name__ == "__main__":
    raise SystemExit(main())
