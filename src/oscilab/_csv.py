"""The one CSV writer behind every output table."""

import csv
import os


def write_csv(path, header, rows, append=False):
    """Write header and rows to path, a string as given and any other value
    as .17g, which reads back as the same float. With append, the rows go
    after the file's existing ones and the header only into a new file. A
    row of numbers as wide as the header is formatted by one format string,
    with the bytes csv.writer would give it; any other row goes through
    csv.writer."""
    new = not (append and os.path.exists(path))
    numbers = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "a" if append else "w", newline="") as fh:
        writer = csv.writer(fh)
        if new:
            writer.writerow(header)
        for row in rows:
            try:
                line = numbers % tuple(row)
            except TypeError:  # a string in the row, or another width
                writer.writerow(
                    [v if isinstance(v, str) else f"{v:.17g}" for v in row]
                )
            else:
                fh.write(line)
