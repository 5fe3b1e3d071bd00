"""``python -m joinlab`` runs the command-line interface of :mod:`joinlab.cli`."""
from joinlab.cli import main

raise SystemExit(main())
