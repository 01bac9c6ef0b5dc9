from repro.cli.entry import main

if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
