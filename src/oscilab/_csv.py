"""The one CSV writer behind every output table."""

import csv
import os


def write_csv(path, header, rows, append=False):
    """Write header and rows to path, a string as given and any other value
    as .17g, which reads back as the same float. With append, the rows go
    after the file's existing ones and the header only into a new file."""
    new = not (append and os.path.exists(path))
    with open(path, "a" if append else "w", newline="") as fh:
        writer = csv.writer(fh)
        if new:
            writer.writerow(header)
        writer.writerows(
            [v if isinstance(v, str) else f"{v:.17g}" for v in row] for row in rows
        )
