"""ocr_ray — a Ray-Data-native document-extraction engine.

Rebuilt from scratch with the query/data-processing capabilities of the
reference OCR service (alfalaq12/OCR), re-expressed as streaming batch
transforms over ``ray.data.Dataset``:

- interleaved text+media documents ``(doc_id, spans[])`` as the input table
  (Lance when available, Parquet otherwise — see :mod:`ocr_ray.io`);
- span routing by kind (html → boilerplate stripper, pdf/image → actor-pool
  OCR stage), text-repair kernels with exact parity to the reference
  (dictionary → currency → old-spelling → quality score);
- reassembly per doc_id preserving offset order via hash partitioning;
- checkpoint-resumable partitioned output with per-partition lineage;
- large-scale training-data ops: dedup (exact / MinHash-LSH / SimHash /
  n-gram Jaccard), text analysis.
"""

__version__ = "0.1.0"
