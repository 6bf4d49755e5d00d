package repro.video

import org.scalacheck.{Gen, Prop, Properties}
import repro.video.Knobs._
import repro.video.Formats._

/** ScalaCheck properties over randomly drawn knob combinations — the
  * partial-order and model invariants the configurator relies on.
  */
object ModelProperties extends Properties("VideoModels") {

  val genQuality: Gen[ImageQuality] = Gen.oneOf(ImageQuality.all)
  val genCrop: Gen[CropFactor] = Gen.oneOf(CropFactor.all)
  val genRes: Gen[Resolution] = Gen.oneOf(Resolution.ten)
  val genSamp: Gen[FrameSampling] = Gen.oneOf(FrameSampling.all)
  val genFidelity: Gen[Fidelity] =
    for (q <- genQuality; c <- genCrop; r <- genRes; s <- genSamp) yield Fidelity(q, c, r, s)
  val genCoding: Gen[Coding] = Gen.oneOf(Coding.space)
  val genOp: Gen[OperatorModel.Operator] = Gen.oneOf(OperatorModel.all)
  val genVideo: Gen[VideoProfile] = Gen.oneOf(VideoProfile.all)

  property("max is an upper bound") = Prop.forAll(genFidelity, genFidelity) { (a, b) =>
    val m = Fidelity.max(a, b)
    m.richerOrEqual(a) && m.richerOrEqual(b)
  }

  property("max is associative") = Prop.forAll(genFidelity, genFidelity, genFidelity) { (a, b, c) =>
    Fidelity.max(Fidelity.max(a, b), c) == Fidelity.max(a, Fidelity.max(b, c))
  }

  property("richerOrEqual is antisymmetric") = Prop.forAll(genFidelity, genFidelity) { (a, b) =>
    !(a.richerOrEqual(b) && b.richerOrEqual(a)) || a == b
  }

  property("degrading to a poorer fidelity keeps accuracy no higher") =
    Prop.forAll(genOp, genFidelity, genFidelity) { (op, a, b) =>
      !a.richerOrEqual(b) || op.accuracy(a) >= op.accuracy(b) - 1e-12
    }

  property("richer fidelity never consumes faster") =
    Prop.forAll(genOp, genFidelity, genFidelity) { (op, a, b) =>
      !a.richerOrEqual(b) || op.consumptionSpeed(a) <= op.consumptionSpeed(b) + 1e-9
    }

  property("accuracy in [0,1]; detectProb in [0,1]") =
    Prop.forAll(genOp, genFidelity, genVideo) { (op, f, v) =>
      val a = op.accuracy(f, v); val p = op.detectProb(f, v)
      a >= 0 && a <= 1 && p >= 0 && p <= 1 && p <= a + 1e-12
    }

  property("stored size is positive and raw is coding-independent") =
    Prop.forAll(genFidelity, genCoding, genVideo) { (f, c, v) =>
      val sf = StorageFormat(f, c)
      CodecModel.storedBytesPerSec(sf, v) > 0
    }

  property("retrieval speed positive for any consumer rate <= stored rate") =
    Prop.forAll(genFidelity, genCoding) { (f, c) =>
      val sf = StorageFormat(f, c)
      CodecModel.retrievalSpeed(sf, f.sampling.fps) > 0 &&
        CodecModel.retrievalSpeed(sf, 1.0) >= CodecModel.retrievalSpeed(sf, f.sampling.fps) - 1e-9
    }

  property("ingest cores positive; RAW cheaper than slowest encode") =
    Prop.forAll(genFidelity, genVideo) { (f, v) =>
      val raw = CodecModel.ingestCores(StorageFormat(f, Raw), v)
      val enc = CodecModel.ingestCores(StorageFormat(f, Coding.slowestSmallest), v)
      raw > 0 && enc > 0 && raw < enc
    }

  property("encode speed decreases with richer fidelity") =
    Prop.forAll(genFidelity, genFidelity, genVideo) { (a, b, v) =>
      val sa = CodecModel.encodeSpeedPerCore(StorageFormat(a, Coding.slowestSmallest), v)
      val sb = CodecModel.encodeSpeedPerCore(StorageFormat(b, Coding.slowestSmallest), v)
      !a.richerOrEqual(b) || sa <= sb + 1e-9
    }

  property("golden serves every CF it is derived from") =
    Prop.forAll(Gen.nonEmptyListOf(genFidelity)) { fs =>
      val g = Formats.golden(fs.map(ConsumptionFormat(_)))
      fs.forall(f => g.canServe(ConsumptionFormat(f)))
    }

  property("buildTree of any fidelity set plus golden has a valid root") =
    Prop.forAll(Gen.nonEmptyListOf(genFidelity)) { fs =>
      val sfs = fs.distinct.map(StorageFormat(_, Raw))
      val g = Formats.golden(fs.map(ConsumptionFormat(_)))
      val t = Formats.buildTree(g, sfs)
      sfs.forall(sf => t.ancestors(sf).lastOption.forall(_ == t.root))
    }
}
